(* Sidecar HTTP listener for Prometheus-style scrapes.

   A deliberately tiny HTTP/1.0 responder: one background thread accepts
   connections, reads whatever request line + headers arrive within a
   short deadline, and answers every path with the rendered metrics page.
   It lives on its own port — separate from the framed protocol listener
   — so scraping never competes with sessions for slots, admission or
   rate limits, and a hung scraper can at worst stall the sidecar thread,
   never the serving loop.

   The page is the same aggregate-only surface as Stats_req/Metrics_req
   (static metric names + numbers), so exposing it over plain HTTP adds
   no leakage beyond what the wire message already grants. *)

module Exposition = Ppst_telemetry.Exposition
module Metrics = Ppst_telemetry.Metrics

let m_scrapes = Metrics.counter "metrics.endpoint.scrapes"
let m_errors = Metrics.counter "metrics.endpoint.errors"

type t = { intake : Channel.intake; port : int; thread : Thread.t }

(* Read until the blank line ending the headers, EOF, a size cap or the
   deadline — whichever comes first.  The request itself is ignored
   (every path serves the page), so tolerance beats strictness here. *)
let drain_request fd =
  let deadline = Monoclock.now () +. 2.0 in
  let buf = Bytes.create 1024 in
  let seen = Buffer.create 256 in
  let rec go () =
    if Monoclock.now () >= deadline || Buffer.length seen > 8192 then ()
    else
      match Unix.select [ fd ] [] [] 0.2 with
      | [], _, _ -> go ()
      | _ -> (
        match Unix.read fd buf 0 (Bytes.length buf) with
        | 0 -> ()
        | n ->
          Buffer.add_subbytes seen buf 0 n;
          let s = Buffer.contents seen in
          let terminated i sep =
            let l = String.length sep in
            String.length s >= i + l && String.sub s i l = sep
          in
          let rec find i =
            if i > String.length s - 2 then false
            else terminated i "\r\n\r\n" || terminated i "\n\n" || find (i + 1)
          in
          if not (find 0) then go ()
        | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EINTR), _, _) -> go ())
  in
  (try go () with Unix.Unix_error _ -> ())

let handle_conn fd =
  Fun.protect
    ~finally:(fun () -> Channel.close_quiet fd)
    (fun () ->
      drain_request fd;
      let body = Exposition.render () in
      let head =
        Printf.sprintf
          "HTTP/1.0 200 OK\r\n\
           Content-Type: text/plain; version=0.0.4; charset=utf-8\r\n\
           Content-Length: %d\r\n\
           Connection: close\r\n\
           \r\n"
          (String.length body)
      in
      let page = head ^ body in
      Channel.write_all fd (Bytes.of_string page) (String.length page);
      Metrics.incr m_scrapes)

(* Out of descriptors, the shared intake takes the pending scrape
   through its reserve; it is not a framed peer, so the refusal just
   closes it. *)
let rec serve intake =
  match Channel.take intake ~refuse:Channel.close_quiet with
  | Closed -> ()
  | Conn (fd, _) ->
    (try handle_conn fd with _ -> Metrics.incr m_errors);
    serve intake
  | Idle | (exception Unix.Unix_error _) -> serve intake

let start ~port () =
  let listener, port = Channel.listen ~loopback:true ~backlog:16 ~port () in
  let intake = Channel.intake (Channel.Listener listener) in
  { intake; port; thread = Thread.create serve intake }

let port t = t.port

let stop t =
  Channel.stop t.intake;
  Thread.join t.thread;
  Channel.close_intake t.intake
