type link = { rtt_seconds : float; bandwidth_bytes_per_second : float }

let link ~rtt_ms ~mbit_per_s =
  if rtt_ms < 0.0 || mbit_per_s <= 0.0 then invalid_arg "Netsim.link: bad parameters";
  {
    rtt_seconds = rtt_ms /. 1000.0;
    bandwidth_bytes_per_second = mbit_per_s *. 1_000_000.0 /. 8.0;
  }

let lan = link ~rtt_ms:0.2 ~mbit_per_s:1000.0
let wan = link ~rtt_ms:30.0 ~mbit_per_s:100.0
let datacenter = link ~rtt_ms:0.05 ~mbit_per_s:10_000.0

type estimate = {
  compute_seconds : float;
  latency_seconds : float;
  transfer_seconds : float;
  total_seconds : float;
}

let frame_header_bytes = 4

let estimate ~link ~compute_seconds stats =
  let rounds = Stats.rounds stats in
  let latency = float_of_int rounds *. link.rtt_seconds in
  let wire_bytes = Stats.total_bytes stats + (2 * frame_header_bytes * rounds) in
  let transfer = float_of_int wire_bytes /. link.bandwidth_bytes_per_second in
  {
    compute_seconds;
    latency_seconds = latency;
    transfer_seconds = transfer;
    total_seconds = compute_seconds +. latency +. transfer;
  }

let pp_estimate fmt e =
  Format.fprintf fmt
    "@[<h>total %.3fs (compute %.3fs + latency %.3fs + transfer %.3fs)@]"
    e.total_seconds e.compute_seconds e.latency_seconds e.transfer_seconds
