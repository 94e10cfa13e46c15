(* Deterministic fault injection for the frame layer.  An injector sits
   in a channel's (or server session's) frame path and decides, per
   frame, whether to pass it through or to inject one of five faults.
   Everything is seeded (SplitMix64 — test machinery, not protocol
   randomness), so a chaos run replays bit-identically from
   [--chaos-seed]. *)

module Metrics = Ppst_telemetry.Metrics

let m_injected = Metrics.counter "transport.faults.injected"

type profile =
  | Off
  | Drop_at of int
  | Drop_every of int
  | Corrupt_every of int * int
  | Delay_every of int * float
  | Short_every of int
  | Dup_every of int
  | Flaky of float
  | Crash_at of int
  | Crash_write_at of int

type action =
  | Pass
  | Drop
  | Corrupt of int
  | Delay of float
  | Short_write
  | Duplicate
  | Crash
  | Crash_mid_write

type t = {
  profile : profile;
  prng : Ppst_bigint.Splitmix.t;
  mu : Mutex.t;
  mutable frames : int;
  mutable injected : int;
}

let create ?(seed = 1) profile =
  (match profile with
   | Drop_at n | Crash_at n | Crash_write_at n ->
     if n < 1 then invalid_arg "Faults.create: frame index must be >= 1"
   | Drop_every n | Corrupt_every (n, _) | Delay_every (n, _) | Short_every n
   | Dup_every n ->
     if n < 1 then invalid_arg "Faults.create: period must be >= 1"
   | Flaky p ->
     if p < 0.0 || p > 1.0 then
       invalid_arg "Faults.create: flaky probability must be in [0, 1]"
   | Off -> ());
  {
    profile;
    prng = Ppst_bigint.Splitmix.create seed;
    mu = Mutex.create ();
    frames = 0;
    injected = 0;
  }

let frames t = Mutex.protect t.mu (fun () -> t.frames)
let injected t = Mutex.protect t.mu (fun () -> t.injected)

let next t =
  Mutex.protect t.mu (fun () ->
      t.frames <- t.frames + 1;
      let n = t.frames in
      let action =
        match t.profile with
        | Off -> Pass
        | Drop_at k -> if n = k then Drop else Pass
        | Crash_at k -> if n = k then Crash else Pass
        | Crash_write_at k -> if n = k then Crash_mid_write else Pass
        | Drop_every k -> if n mod k = 0 then Drop else Pass
        | Corrupt_every (k, byte) -> if n mod k = 0 then Corrupt byte else Pass
        | Delay_every (k, s) -> if n mod k = 0 then Delay s else Pass
        | Short_every k -> if n mod k = 0 then Short_write else Pass
        | Dup_every k -> if n mod k = 0 then Duplicate else Pass
        | Flaky p ->
          (* seeded coin per frame; the draw happens on every frame so
             the stream stays aligned with the frame counter *)
          let u = float_of_int (Ppst_bigint.Splitmix.int t.prng (1 lsl 30)) /. 1073741824.0 in
          if u < p then Drop else Pass
      in
      (match action with Pass -> () | _ ->
        t.injected <- t.injected + 1;
        Metrics.incr m_injected);
      action)

(* The profile grammar both injectors share: "off" (or the empty string)
   is [off]; anything else is one row's prefix followed by a non-empty
   argument, which the row's parser reads.  [what] names the flag in
   every error. *)
let parse_profile ~what ~off rows s =
  if s = "off" || s = "" then Ok off
  else
    match
      List.find_opt
        (fun (prefix, _, _) ->
          String.length s > String.length prefix && String.starts_with ~prefix s)
        rows
    with
    | Some (prefix, _, parse) ->
      let n = String.length prefix in
      Result.map_error (Printf.sprintf "%s: %s" what)
        (parse (String.sub s n (String.length s - n)))
    | None ->
      let forms = List.map (fun (prefix, arg, _) -> prefix ^ arg) rows in
      let last = List.length forms - 1 in
      Error
        (Printf.sprintf "unknown %s %S (expected off, %s or %s)" what s
           (String.concat ", " (List.filteri (fun i _ -> i < last) forms))
           (List.nth forms last))

let positive v =
  match int_of_string_opt v with
  | Some n when n >= 1 -> Ok n
  | Some n -> Error (Printf.sprintf "%d is not a positive count" n)
  | None -> Error (Printf.sprintf "%S is not an integer" v)

(* A row whose argument is one positive count. *)
let counted prefix make = (prefix, "N", fun v -> Result.map make (positive v))

(* Environmental (disk / file-descriptor) fault injection.  Where the
   frame injector above sits in the wire path, a [Disk.t] sits in front
   of filesystem and fd-allocating syscalls — spool writes, catalog
   saves, snapshot fsyncs, the supervisor's accept/socketpair — and
   fails the Nth such operation with the real errno the environment
   would produce (ENOSPC, EIO, EMFILE).  Deterministic in the per-kind
   operation counters, so a degraded-mode run replays bit-identically
   from its profile string. *)
module Disk = struct
  type op = Write | Fsync | Rename | Fd

  type profile =
    | Off
    | Enospc_at of int  (* Nth write fails with ENOSPC *)
    | Enospc_every of int
    | Eio_fsync_at of int  (* Nth fsync fails with EIO *)
    | Eio_fsync_every of int
    | Torn_rename_at of int
        (* Nth rename fails with EIO after the temp file was written:
           the orphaned .tmp is exactly what a torn atomic-replace
           leaves behind *)
    | Emfile_at of int  (* Nth fd allocation (accept/socketpair) fails *)
    | Emfile_every of int

  type t = {
    profile : profile;
    mu : Mutex.t;
    mutable writes : int;
    mutable fsyncs : int;
    mutable renames : int;
    mutable fds : int;
    mutable injected : int;
  }

  let m_disk_injected = Metrics.counter "transport.faults.disk_injected"

  let create profile =
    (match profile with
     | Enospc_at n | Enospc_every n | Eio_fsync_at n | Eio_fsync_every n
     | Torn_rename_at n | Emfile_at n | Emfile_every n ->
       if n < 1 then invalid_arg "Faults.Disk.create: index must be >= 1"
     | Off -> ());
    {
      profile;
      mu = Mutex.create ();
      writes = 0;
      fsyncs = 0;
      renames = 0;
      fds = 0;
      injected = 0;
    }

  let injected t = Mutex.protect t.mu (fun () -> t.injected)

  let check t op =
    Mutex.protect t.mu (fun () ->
        let count =
          match op with
          | Write ->
            t.writes <- t.writes + 1;
            t.writes
          | Fsync ->
            t.fsyncs <- t.fsyncs + 1;
            t.fsyncs
          | Rename ->
            t.renames <- t.renames + 1;
            t.renames
          | Fd ->
            t.fds <- t.fds + 1;
            t.fds
        in
        let fail errno name =
          t.injected <- t.injected + 1;
          Metrics.incr m_disk_injected;
          raise (Unix.Unix_error (errno, name, "fault injection"))
        in
        match (t.profile, op) with
        | Enospc_at k, Write when count = k -> fail Unix.ENOSPC "write"
        | Enospc_every k, Write when count mod k = 0 -> fail Unix.ENOSPC "write"
        | Eio_fsync_at k, Fsync when count = k -> fail Unix.EIO "fsync"
        | Eio_fsync_every k, Fsync when count mod k = 0 -> fail Unix.EIO "fsync"
        | Torn_rename_at k, Rename when count = k -> fail Unix.EIO "rename"
        | Emfile_at k, Fd when count = k -> fail Unix.EMFILE "accept"
        | Emfile_every k, Fd when count mod k = 0 -> fail Unix.EMFILE "accept"
        | _ -> ())

  let check_opt t op = Option.iter (fun t -> check t op) t

  let profile_to_string = function
    | Off -> "off"
    | Enospc_at n -> Printf.sprintf "enospc-at-%d" n
    | Enospc_every n -> Printf.sprintf "enospc-every-%d" n
    | Eio_fsync_at n -> Printf.sprintf "eio-fsync-at-%d" n
    | Eio_fsync_every n -> Printf.sprintf "eio-fsync-every-%d" n
    | Torn_rename_at n -> Printf.sprintf "torn-rename-at-%d" n
    | Emfile_at n -> Printf.sprintf "emfile-at-%d" n
    | Emfile_every n -> Printf.sprintf "emfile-every-%d" n

  let profile_of_string =
    parse_profile ~what:"disk chaos profile" ~off:Off
      [
        counted "enospc-at-" (fun n -> Enospc_at n);
        counted "enospc-every-" (fun n -> Enospc_every n);
        counted "eio-fsync-at-" (fun n -> Eio_fsync_at n);
        counted "eio-fsync-every-" (fun n -> Eio_fsync_every n);
        counted "torn-rename-at-" (fun n -> Torn_rename_at n);
        counted "emfile-at-" (fun n -> Emfile_at n);
        counted "emfile-every-" (fun n -> Emfile_every n);
      ]
end

let profile_to_string = function
  | Off -> "off"
  | Drop_at n -> Printf.sprintf "drop-at-%d" n
  | Drop_every n -> Printf.sprintf "drop-every-%d" n
  | Corrupt_every (n, k) -> Printf.sprintf "corrupt-every-%d:%d" n k
  | Delay_every (n, s) -> Printf.sprintf "delay-every-%d:%.0f" n (s *. 1000.0)
  | Short_every n -> Printf.sprintf "short-every-%d" n
  | Dup_every n -> Printf.sprintf "dup-every-%d" n
  | Flaky p -> Printf.sprintf "flaky-%g" p
  | Crash_at n -> Printf.sprintf "crash-at-%d" n
  | Crash_write_at n -> Printf.sprintf "crash-write-at-%d" n

(* "N" or "N:ARG": a positive period and, when given, its argument. *)
let period_and v =
  match String.index_opt v ':' with
  | None -> Result.map (fun n -> (n, None)) (positive v)
  | Some i ->
    Result.map
      (fun n -> (n, Some (String.sub v (i + 1) (String.length v - i - 1))))
      (positive (String.sub v 0 i))

(* Parsed profiles go straight to [create]: validate here so a bad
   [--chaos-profile] dies at argument parsing, not at first frame. *)
let profile_of_string =
  let ( let* ) = Result.bind in
  parse_profile ~what:"chaos profile" ~off:Off
    [
      counted "drop-at-" (fun n -> Drop_at n);
      counted "drop-every-" (fun n -> Drop_every n);
      ( "corrupt-every-", "N[:BYTE]",
        fun v ->
          let* n, byte = period_and v in
          (* the byte index may be 0 (first byte of the frame) *)
          match byte with
          | None -> Ok (Corrupt_every (n, 0))
          | Some b ->
            (match int_of_string_opt b with
             | Some k when k >= 0 -> Ok (Corrupt_every (n, k))
             | _ -> Error (Printf.sprintf "bad byte index %S" b)) );
      ( "delay-every-", "N[:MS]",
        fun v ->
          let* n, ms = period_and v in
          let* ms = match ms with None -> Ok 10 | Some m -> positive m in
          Ok (Delay_every (n, float_of_int ms /. 1000.0)) );
      counted "short-every-" (fun n -> Short_every n);
      counted "dup-every-" (fun n -> Dup_every n);
      ( "flaky-", "P",
        fun v ->
          match float_of_string_opt v with
          | Some p when p >= 0.0 && p <= 1.0 -> Ok (Flaky p)
          | _ -> Error (Printf.sprintf "bad probability %S" v) );
      counted "crash-at-" (fun n -> Crash_at n);
      counted "crash-write-at-" (fun n -> Crash_write_at n);
    ]
