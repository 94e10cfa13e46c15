(** Persistent server-side series store for 1-vs-N catalog search.

    A store is an id-keyed, insertion-ordered collection of integer
    series sharing one dimension.  The order is part of the contract:
    wire-level candidate indices (catalog-list, query-submit) refer to
    positions in {!ids}/{!records}, so enumeration must be stable across
    [save_dir]/[load_dir] round trips — ids are written and loaded in
    lexicographic filename order.

    The store itself is plaintext and lives on the server; clients only
    ever learn ids and lengths (via the catalog-list message) plus
    whatever the secure protocols reveal. *)

open Import

type t

val create : unit -> t
(** An empty store. *)

val insert : t -> id:string -> Series.t -> unit
(** Add a record under [id].
    @raise Invalid_argument if [id] is already present, is empty or
    contains a newline, or the series dimension differs from existing
    records. *)

val evict : t -> id:string -> bool
(** Remove a record; [true] if it was present. *)

val find : t -> id:string -> Series.t option
val mem : t -> id:string -> bool

val length : t -> int
(** Number of records. *)

val ids : t -> string array
(** Ids in insertion order (load order for loaded stores). *)

val records : t -> Series.t array
(** Records in the same order as {!ids}. *)

val lengths : t -> int array
(** Series lengths in the same order as {!ids}. *)

val dimension : t -> int option
(** Shared dimension, [None] while empty. *)

val max_abs_value : t -> int
(** Largest absolute coordinate over all records ([0] when empty). *)

val load_dir : string -> t
(** Load every [*.csv] file in a directory, in lexicographic filename
    order.  Each file holds blank-line-separated blocks
    ({!Csv.load_many}): a single block gets the file's basename (sans
    extension) as id, multiple blocks get [base#0], [base#1], ...
    @raise Invalid_argument if the directory has no [*.csv] files. *)

val save_dir : ?disk_faults:Ppst_transport.Faults.Disk.t -> t -> string -> unit
(** Write each record to [<dir>/<id>.csv] (creating [dir] if needed).
    Ids containing [/] or [#] are escaped with [_] so the round trip
    stays within one directory.

    Each file is written crash-safely: the CSV lands in a temp file
    (suffix [.csv.tmp], which {!load_dir} ignores), is fsynced, and is
    atomically renamed over the final name; the directory is fsynced
    once at the end.  A crash mid-save therefore leaves every id either
    fully old or fully new, never truncated.

    [?disk_faults] injects environmental failures (ENOSPC on write, EIO
    on fsync, a torn rename) into that sequence for degraded-mode
    tests; the save raises the injected [Unix.Unix_error] and the
    guarantee above still holds — no record is ever left truncated. *)

val generate :
  seed:int -> count:int -> length:int -> dim:int -> max_value:int -> t
(** Seeded synthetic catalog of [count] random-vector series (ids
    ["0"].."<count-1>"), for benches and tests. *)
