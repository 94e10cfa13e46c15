(* Crash-safe key/value spool backing cross-worker session failover.

   One file per key under a shared directory, written with the full
   atomic dance (temp file -> fsync(file) -> rename -> fsync(dir)), so a
   reader never observes a torn snapshot: after a SIGKILL at any byte of
   a write, the key either holds its previous value or the new one.
   Keys are raw byte strings (resume tokens); filenames are their hex
   encoding, so hostile token bytes cannot traverse the filesystem.

   Concurrency model: workers are separate processes sharing the
   directory.  rename(2) gives atomic last-writer-wins per key, and a
   session's snapshot is only ever written by the worker currently
   owning its connection, so there is no cross-writer interleaving to
   reason about.  [take] is unlink-after-read: two racing takers can
   both read, but the resume protocol already serializes takes through
   the supervisor's token-hash sharding. *)

type t = { dir : string; disk_faults : Faults.Disk.t option }

let hex_of_key key =
  let b = Buffer.create (2 * String.length key) in
  String.iter (fun c -> Buffer.add_string b (Printf.sprintf "%02x" (Char.code c))) key;
  Buffer.contents b

let path_of_key t key = Filename.concat t.dir (hex_of_key key ^ ".snap")

(* A best-effort durability barrier on a file or a directory. *)
let fsync_path path =
  match Unix.openfile path [ Unix.O_RDONLY ] 0 with
  | fd ->
    Fun.protect ~finally:(fun () -> Unix.close fd) (fun () ->
        try Unix.fsync fd with Unix.Unix_error _ -> ())
  | exception Unix.Unix_error _ -> ()

let rec mkdir_p dir =
  if not (Sys.file_exists dir) then begin
    mkdir_p (Filename.dirname dir);
    try Unix.mkdir dir 0o700 with Unix.Unix_error (Unix.EEXIST, _, _) -> ()
  end

let create ?disk_faults ~dir () =
  mkdir_p dir;
  { dir; disk_faults }

let put t ~key value =
  let final = path_of_key t key in
  let tmp = final ^ ".tmp" in
  let fd = Unix.openfile tmp [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC ] 0o600 in
  Fun.protect
    ~finally:(fun () -> Unix.close fd)
    (fun () ->
      Faults.Disk.check_opt t.disk_faults Faults.Disk.Write;
      Channel.write_all fd (Bytes.of_string value) (String.length value);
      Faults.Disk.check_opt t.disk_faults Faults.Disk.Fsync;
      Unix.fsync fd);
  Faults.Disk.check_opt t.disk_faults Faults.Disk.Rename;
  Sys.rename tmp final;
  fsync_path t.dir

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let find t ~key =
  let path = path_of_key t key in
  if Sys.file_exists path then Some (read_file path) else None

let delete t ~key =
  try Sys.remove (path_of_key t key) with Sys_error _ -> ()

let take t ~key =
  match find t ~key with
  | None -> None
  | Some v ->
    delete t ~key;
    Some v

(* Boot-time writability probe: the full atomic dance on a throwaway
   key, so an unusable spool (missing parent, read-only mount, full
   disk) is discovered at startup with a clear message instead of at the
   first mid-session snapshot write. *)
let validate ~dir =
  match
    let t = create ~dir () in
    let key = Printf.sprintf "boot-probe-%d" (Unix.getpid ()) in
    put t ~key "probe";
    delete t ~key
  with
  | () -> Ok ()
  | exception Unix.Unix_error (e, fn, arg) ->
    Error
      (Printf.sprintf "spool directory %s is not writable: %s(%s): %s" dir fn
         arg (Unix.error_message e))
  | exception Sys_error m -> Error (Printf.sprintf "spool directory %s: %s" dir m)

let entries t =
  match Sys.readdir t.dir with
  | files ->
    Array.to_list files |> List.filter (fun f -> Filename.check_suffix f ".snap")
  | exception Sys_error _ -> []

let size t = List.length (entries t)

(* TTL sweep on mtime; also clears orphaned temp files older than the
   TTL (a writer died between open and rename).  Wall-clock mtimes are
   fine here: the TTL is minutes, clock skew is not. *)
let sweep t ~ttl_s =
  let now = Unix.gettimeofday () in
  let dead = ref 0 in
  (match Sys.readdir t.dir with
  | files ->
    Array.iter
      (fun f ->
        let is_snap = Filename.check_suffix f ".snap" in
        let is_tmp = Filename.check_suffix f ".tmp" in
        if is_snap || is_tmp then
          let path = Filename.concat t.dir f in
          match Unix.stat path with
          | { Unix.st_mtime; _ } when now -. st_mtime > ttl_s ->
            (try Sys.remove path with Sys_error _ -> ());
            if is_snap then incr dead
          | _ | (exception Unix.Unix_error _) -> ())
      files
  | exception Sys_error _ -> ());
  !dead
