(* Primality testing and random prime generation.

   Miller-Rabin with (a) trial division by a precomputed table of small
   primes and (b) random witnesses.  Witness randomness only needs to be
   unpredictable to an adversary who controls the *candidate*, which is
   never the case here (we generate candidates ourselves), so SplitMix64
   witnesses are sufficient; the candidate bits themselves come from the
   caller-provided generator (a CSPRNG in production use). *)

let small_prime_limit = 1000

let small_primes =
  (* Sieve of Eratosthenes up to [small_prime_limit]. *)
  let sieve = Array.make (small_prime_limit + 1) true in
  sieve.(0) <- false;
  sieve.(1) <- false;
  let i = ref 2 in
  while !i * !i <= small_prime_limit do
    if sieve.(!i) then begin
      let j = ref (!i * !i) in
      while !j <= small_prime_limit do
        sieve.(!j) <- false;
        j := !j + !i
      done
    end;
    incr i
  done;
  let out = ref [] in
  for p = small_prime_limit downto 2 do
    if sieve.(p) then out := p :: !out
  done;
  Array.of_list !out

(* Miller-Rabin rounds: a compositeness error below 4^-40. *)
let rounds = 40

(* One Miller-Rabin round: [n] odd > 3, [n - 1 = d * 2^r] with [d] odd,
   witness [a] in [2, n-2].  Returns false when [a] proves compositeness. *)
let miller_rabin_round ctx n n_minus_1 d r a =
  let x = ref (Modular.pow_ctx ctx a d) in
  if Bigint.equal !x Bigint.one || Bigint.equal !x n_minus_1 then true
  else begin
    let witness_found = ref false in
    let i = ref 1 in
    while (not !witness_found) && !i < r do
      x := Modular.mul_ctx ctx !x !x;
      if Bigint.equal !x n_minus_1 then witness_found := true
      else if Bigint.equal !x Bigint.one then i := r (* composite: shortcut out *)
      else incr i
    done;
    ignore n;
    !witness_found
  end

let is_probable_prime n =
  if Bigint.compare n Bigint.two < 0 then false
  else begin
    match Bigint.to_int_opt n with
    | Some v when v <= small_prime_limit ->
      Array.exists (fun p -> p = v) small_primes
    | _ ->
      if Bigint.is_even n then false
      else begin
        let divisible =
          Array.exists
            (fun p ->
              let r = Bigint.rem n (Bigint.of_int p) in
              Bigint.is_zero r && Bigint.compare n (Bigint.of_int p) <> 0)
            small_primes
        in
        if divisible then false
        else begin
          let n_minus_1 = Bigint.pred n in
          (* Factor n-1 = d * 2^r with d odd. *)
          let r = ref 0 and d = ref n_minus_1 in
          while Bigint.is_even !d do
            d := Bigint.shift_right !d 1;
            incr r
          done;
          let ctx = Modular.make_ctx n in
          let witness_rng = Splitmix.create (Bigint.hash n lxor 0x5DEECE66D) in
          let nbits = Bigint.num_bits n in
          let rec rounds_left k =
            if k = 0 then true
            else begin
              (* Witness uniform-ish in [2, n-2] by rejection. *)
              let rec draw () =
                let a = Splitmix.bits witness_rng nbits in
                if Bigint.compare a Bigint.two < 0
                   || Bigint.compare a (Bigint.pred n_minus_1) > 0
                then draw ()
                else a
              in
              let a = draw () in
              if miller_rabin_round ctx n n_minus_1 !d !r a then rounds_left (k - 1)
              else false
            end
          in
          rounds_left rounds
        end
      end
  end

exception No_prime_found of { bits : int; candidates : int }

(* Random prime of exactly [bits] bits: top two bits forced to 1 (so that
   products of two such primes have exactly [2*bits] bits, as RSA/Paillier
   key generation requires), bottom bit forced to 1.  Such a candidate is
   prime with probability about 2 / (bits ln 2), so 100 * bits of them
   all miss with probability about e^-288 at any width: running out
   means the primality test is broken (say, a wrong modular power), and
   the search fails instead of looping forever. *)
let random_prime ~random_bits ~bits =
  if bits < 2 then invalid_arg "Prime.random_prime: need at least 2 bits";
  let top = Bigint.shift_left Bigint.one (bits - 1) in
  let second = Bigint.shift_left Bigint.one (bits - 2) in
  let budget = 100 * bits in
  let rec go tried =
    if tried = budget then raise (No_prime_found { bits; candidates = budget });
    let c = random_bits bits in
    let c = if Bigint.is_even c then Bigint.succ c else c in
    let c = if Bigint.testbit c (bits - 1) then c else Bigint.add c top in
    let c = if Bigint.testbit c (bits - 2) then c else Bigint.add c second in
    if is_probable_prime c then c else go (tried + 1)
  in
  go 0
