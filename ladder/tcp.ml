(* A Server_loop in a forked child process, so the load generator and the
   server do not share one OCaml runtime lock.  The child announces its
   ephemeral port on a pipe, serves until SIGTERM, then writes a report
   (its peak RSS plus any lines the workload asks for) on the same pipe.

   Fork before any Domain is spawned in this process: the runtime
   refuses Unix.fork once a second domain has existed. *)

module Server_loop = Ppst_transport.Server_loop

type t = { pid : int; port : int; from_child : in_channel }

(* Children not yet stopped or killed, for [kill_all]. *)
let live : t list ref = ref []

let forget t = live := List.filter (fun c -> c.pid <> t.pid) !live

let spawn make =
  flush stdout;
  flush stderr;
  let r, w = Unix.pipe ~cloexec:true () in
  match Unix.fork () with
  | 0 ->
    Unix.close r;
    let oc = Unix.out_channel_of_descr w in
    let code =
      try
        let handler, report = make () in
        let loop = Server_loop.create ~port:0 ~handler () in
        Server_loop.install_signal_handlers loop;
        Printf.fprintf oc "port %d\n%!" (Server_loop.port loop);
        Server_loop.run loop;
        Printf.fprintf oc "hwm %d\n" (Summary.vm_hwm_kib ());
        List.iter (fun l -> output_string oc l; output_char oc '\n') (report ());
        close_out oc;
        0
      with e ->
        Printf.eprintf "ladder: server child failed: %s\n%!" (Printexc.to_string e);
        2
    in
    Unix._exit code
  | pid ->
    Unix.close w;
    let from_child = Unix.in_channel_of_descr r in
    let port =
      match input_line from_child with
      | line -> Scanf.sscanf line "port %d" Fun.id
      | exception End_of_file ->
        ignore (Unix.waitpid [] pid);
        failwith "ladder: server child exited before listening"
    in
    let t = { pid; port; from_child } in
    live := t :: !live;
    t

(* Discard a server without its report (extra set-up repetitions). *)
let kill t =
  forget t;
  (try Unix.kill t.pid Sys.sigkill with Unix.Unix_error _ -> ());
  ignore (Unix.waitpid [] t.pid);
  close_in_noerr t.from_child

(* Graceful stop: SIGTERM, collect the report lines, reap the child.  A
   child that does not drain within 20 s is killed and its report is
   whatever arrived. *)
let stop t =
  forget t;
  (try Unix.kill t.pid Sys.sigterm with Unix.Unix_error _ -> ());
  let fd = Unix.descr_of_in_channel t.from_child in
  let deadline = Summary.now () +. 20.0 in
  let buf = Buffer.create 4096 in
  let chunk = Bytes.create 65536 in
  let rec drain () =
    let left = deadline -. Summary.now () in
    if left > 0.0 then
      match Unix.select [ fd ] [] [] left with
      | [], _, _ -> ()
      | _ -> (
        match Unix.read fd chunk 0 (Bytes.length chunk) with
        | 0 -> ()
        | n ->
          Buffer.add_subbytes buf chunk 0 n;
          drain ()
        | exception Unix.Unix_error (Unix.EINTR, _, _) -> drain ())
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> drain ()
  in
  drain ();
  if Summary.now () >= deadline then (
    try Unix.kill t.pid Sys.sigkill with Unix.Unix_error _ -> ());
  ignore (Unix.waitpid [] t.pid);
  close_in_noerr t.from_child;
  String.split_on_char '\n' (Buffer.contents buf)
  |> List.filter (fun l -> l <> "")

let kill_all () = List.iter kill !live

let report_int lines key =
  List.fold_left
    (fun acc l ->
      match Scanf.sscanf l "%s %d" (fun k v -> (k, v)) with
      | k, v when k = key -> v
      | _ -> acc
      | exception _ -> acc)
    0 lines
