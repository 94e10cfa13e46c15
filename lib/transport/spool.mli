(** Crash-safe key/value spool: one file per key, written atomically
    (temp file + fsync + [rename] + directory fsync), shared between
    supervised worker processes.  This is the externalized resume store
    of the failover design (PROTOCOL.md §13): a session snapshot put by
    worker A survives A's SIGKILL and is taken by worker B.

    Keys are raw byte strings (resume tokens); filenames are their hex
    encoding, so untrusted token bytes cannot escape the directory. *)

type t

val create : ?disk_faults:Faults.Disk.t -> dir:string -> unit -> t
(** Open (creating, mode 0700, parents included) a spool directory.
    [?disk_faults] installs an environmental fault injector consulted on
    every {!put} (write, fsync, rename) — degraded-mode chaos testing,
    never set in production. *)

val validate : dir:string -> (unit, string) result
(** Boot-time writability probe: create the directory if missing, then
    run one full atomic write cycle (write + fsync + rename + directory
    fsync) on a throwaway key and delete it.  [Error msg] carries a
    human-readable reason (read-only mount, full disk, bad parent), so
    a server can fail fast at startup instead of discovering an
    unusable spool at its first mid-session snapshot. *)

val fsync_path : string -> unit
(** Open [path] (a file or a directory) read-only and fsync it, ignoring
    errors: the barrier after a rename that atomic writers share. *)

val put : t -> key:string -> string -> unit
(** Atomically replace [key]'s value.  After a crash at any point the
    key holds either its previous value or the new one, never a torn
    write.  @raise Unix.Unix_error on filesystem failure. *)

val find : t -> key:string -> string option
(** Read without consuming. *)

val take : t -> key:string -> string option
(** Read and delete (resume consumes its snapshot). *)

val delete : t -> key:string -> unit
(** Remove [key] if present (session ended cleanly). *)

val size : t -> int
(** Number of spooled snapshots. *)

val sweep : t -> ttl_s:float -> int
(** Delete snapshots (and orphaned temp files) whose mtime is older
    than [ttl_s]; returns the number of snapshots removed. *)
