type t = {
  mutable bytes_sent : int;
  mutable bytes_received : int;
  mutable values_sent : int;
  mutable values_received : int;
  mutable rounds : int;
  mutable messages : int;
  mutable failures : int;
}

let create () =
  {
    bytes_sent = 0;
    bytes_received = 0;
    values_sent = 0;
    values_received = 0;
    rounds = 0;
    messages = 0;
    failures = 0;
  }

let record_sent t ~bytes ~values =
  t.bytes_sent <- t.bytes_sent + bytes;
  t.values_sent <- t.values_sent + values;
  t.messages <- t.messages + 1

let record_received t ~bytes ~values =
  t.bytes_received <- t.bytes_received + bytes;
  t.values_received <- t.values_received + values;
  t.messages <- t.messages + 1

let record_round t = t.rounds <- t.rounds + 1
let record_failure t = t.failures <- t.failures + 1

let bytes_sent t = t.bytes_sent
let bytes_received t = t.bytes_received
let total_bytes t = t.bytes_sent + t.bytes_received
let values_sent t = t.values_sent
let values_received t = t.values_received
let total_values t = t.values_sent + t.values_received
let rounds t = t.rounds
let messages t = t.messages
let failures t = t.failures

let reset t =
  t.bytes_sent <- 0;
  t.bytes_received <- 0;
  t.values_sent <- 0;
  t.values_received <- 0;
  t.rounds <- 0;
  t.messages <- 0;
  t.failures <- 0

let merge a b =
  {
    bytes_sent = a.bytes_sent + b.bytes_sent;
    bytes_received = a.bytes_received + b.bytes_received;
    values_sent = a.values_sent + b.values_sent;
    values_received = a.values_received + b.values_received;
    rounds = a.rounds + b.rounds;
    messages = a.messages + b.messages;
    failures = a.failures + b.failures;
  }

let pp fmt t =
  Format.fprintf fmt
    "@[<h>sent %d B / %d values; received %d B / %d values; %d rounds, %d \
     messages%s@]"
    t.bytes_sent t.values_sent t.bytes_received t.values_received t.rounds
    t.messages
    (if t.failures = 0 then ""
     else Printf.sprintf "; %d connection failure(s) recovered or fatal" t.failures)

let fields t =
  [
    ("bytes_sent", t.bytes_sent);
    ("bytes_received", t.bytes_received);
    ("values_sent", t.values_sent);
    ("values_received", t.values_received);
    ("rounds", t.rounds);
    ("messages", t.messages);
    ("failures", t.failures);
  ]

let of_fields get =
  {
    bytes_sent = get "bytes_sent";
    bytes_received = get "bytes_received";
    values_sent = get "values_sent";
    values_received = get "values_received";
    rounds = get "rounds";
    messages = get "messages";
    failures = get "failures";
  }

let to_json t =
  Printf.sprintf
    {|{"bytes_sent":%d,"bytes_received":%d,"values_sent":%d,"values_received":%d,"rounds":%d,"messages":%d,"failures":%d}|}
    t.bytes_sent t.bytes_received t.values_sent t.values_received t.rounds
    t.messages t.failures
