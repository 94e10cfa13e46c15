(* CRC-32 (IEEE 802.3, reflected polynomial 0xEDB88320), table-driven.
   Fast enough to sit in the frame path: one table lookup per byte is
   noise next to a Paillier ciphertext's modular exponentiations. *)

(* Built at module initialisation, before any thread can call [update]:
   a table built on first use, forced by two threads at once, raises
   [CamlinternalLazy.Undefined] in the second. *)
let table =
  Array.init 256 (fun n ->
      let c = ref n in
      for _ = 0 to 7 do
        c := if !c land 1 <> 0 then 0xEDB88320 lxor (!c lsr 1) else !c lsr 1
      done;
      !c)

let update crc s off len =
  if off < 0 || len < 0 || off + len > String.length s then
    invalid_arg "Crc32.update: range outside the string";
  let c = ref (lnot crc land 0xFFFFFFFF) in
  for i = off to off + len - 1 do
    c := table.((!c lxor Char.code s.[i]) land 0xFF) lxor (!c lsr 8)
  done;
  lnot !c land 0xFFFFFFFF

let digest s = update 0 s 0 (String.length s)
