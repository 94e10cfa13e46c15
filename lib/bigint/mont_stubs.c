/* Montgomery multiplication, squaring and exponentiation over 64-bit
 * limbs, the binary GCD and inverse of modular.ml, and one entry per
 * Paillier operation of paillier.ml.
 *
 * montgomery.ml holds a Montgomery-form value as a Bytes.t of exactly w
 * native-endian 64-bit limbs, little-endian in limb order, holding a
 * residue in [0, n).  A context is a "kernel" Bytes.t of w + 1 limbs:
 * the odd modulus n, then n' = -n^-1 mod 2^64.  R = 2^(64w).
 *
 * Products and squares are product scanning (FIPS in Koc, Acar and
 * Kaliski 1996): column k of a b + M n is summed in a three-limb
 * accumulator held in registers, an unsigned __int128 and a carry limb,
 * and a square takes each cross product once.  Exponentiation is one
 * sliding window over squares whose width grows with the exponent's
 * length; it reads the exponent as 64-bit limbs, so an entry taking a
 * Nat.t exponent packs it first.  GCD (Stein) and the inverse modulo an
 * odd m run on the same limbs.
 *
 * The Paillier entries work over a key's context (one Bytes.t, laid out
 * below by ppst_mont_crt): the kernels of p, q, p^2, q^2 and n^2, a
 * folding table per prime and prime square, and the CRT constants.
 * Decryption (Paillier 1999, Section 7) folds c into Montgomery form
 * mod p^2 and q^2, takes the two half powers, computes L by exact
 * division (Jebelean 1993) and recombines by Garner; ciphertext
 * validation folds c mod p and mod q; the key holder's noise r^n mod
 * n^2 is two Teichmueller lifts and a Garner step mod q^2.  The
 * client's noise enters form and powers in one call, and the
 * encryption step multiplies (1 + m n) R mod n^2 into its noise.
 *
 * The stubs keep no global state: a call writes only its own result
 * block and the heap scratch it frees before returning, so any number
 * of Domains may share one context.  An entry that allocates its result
 * copies its inputs into scratch first and allocates last, since the GC
 * may move an OCaml block during an allocation.
 *
 * Every operand's byte length is checked against its context's width,
 * and every Nat.t operand's length against the limbs it is packed
 * into.  Two contexts are one OCaml type, and a read past the end of an
 * OCaml block is invisible to AddressSanitizer, so this check is what
 * stops a value built under one modulus from being read under a wider
 * one.
 *
 * Not constant-time: the final subtraction, the window width and
 * lookups, every step of the GCD and the inverse, and the folding,
 * exact division and Garner steps on the secret p and q depend on the
 * operands (SECURITY.md).
 */

#include <caml/mlvalues.h>
#include <caml/memory.h>
#include <caml/alloc.h>
#include <caml/fail.h>

#include <stdint.h>
#include <stdlib.h>
#include <string.h>

typedef uint64_t limb;
typedef unsigned __int128 dlimb;

#define LIMB_BYTES 8
#define NAT_BITS 31 /* Nat.base_bits: an OCaml Nat.t holds 31-bit limbs */

static mlsize_t kernel_width(value vk)
{
  return caml_string_length(vk) / LIMB_BYTES - 1;
}

static void check_width(value v, mlsize_t w)
{
  if (caml_string_length(v) != w * LIMB_BYTES)
    caml_invalid_argument("Montgomery: operand width does not match its context");
}

/* Significant bits of a Nat.t, ignoring any zero top limbs. */
static uintnat nat_bits(value nat)
{
  mlsize_t len = Wosize_val(nat);
  while (len > 0 && Long_val(Field(nat, len - 1)) == 0) len--;
  if (len == 0) return 0;
  return NAT_BITS * (len - 1) + 64
    - __builtin_clzll((limb) Long_val(Field(nat, len - 1)));
}

/* r (w limbs) = nat; the caller has checked nat_bits(nat) <= 64 w. */
static void pack_nat(limb *r, mlsize_t w, value nat)
{
  mlsize_t i, len = Wosize_val(nat);
  memset(r, 0, w * LIMB_BYTES);
  for (i = 0; i < len; i++) {
    limb v = (limb) Long_val(Field(nat, i));
    uintnat bit = (uintnat) NAT_BITS * i, k = bit / 64, off = bit % 64;
    if (v == 0) continue;
    r[k] |= v << off;
    if (off > 64 - NAT_BITS && k + 1 < w) r[k + 1] |= v >> (64 - off);
  }
}

static int geq(const limb *a, const limb *b, mlsize_t w)
{
  mlsize_t i;
  for (i = w; i-- > 0;)
    if (a[i] != b[i]) return a[i] > b[i];
  return 1;
}

static void sub_in_place(limb *a, const limb *b, mlsize_t w)
{
  mlsize_t i;
  limb borrow = 0;
  for (i = 0; i < w; i++) {
    dlimb d = (dlimb) a[i] - b[i] - borrow;
    a[i] = (limb) d;
    borrow = (limb) (d >> 64) & 1;
  }
}

/* Length of x ignoring zero top limbs. */
static mlsize_t top_len(const limb *x, mlsize_t len)
{
  while (len > 0 && x[len - 1] == 0) len--;
  return len;
}

/* Sign of a - b for values of alen and blen significant limbs. */
static int cmp_len(const limb *a, mlsize_t alen, const limb *b, mlsize_t blen)
{
  mlsize_t i;
  if (alen != blen) return alen > blen ? 1 : -1;
  for (i = alen; i-- > 0;)
    if (a[i] != b[i]) return a[i] > b[i] ? 1 : -1;
  return 0;
}

/* a -= b for a >= b, a of alen limbs and b of blen <= alen limbs. */
static void sub_len(limb *a, mlsize_t alen, const limb *b, mlsize_t blen)
{
  mlsize_t i;
  limb borrow = 0;
  for (i = 0; i < alen && (i < blen || borrow); i++) {
    dlimb d = (dlimb) a[i] - (i < blen ? b[i] : 0) - borrow;
    a[i] = (limb) d;
    borrow = (limb) (d >> 64) & 1;
  }
}

/* Trailing zero bits of a nonzero x. */
static uintnat ctz_limbs(const limb *x)
{
  mlsize_t i = 0;
  while (x[i] == 0) i++;
  return 64 * i + __builtin_ctzll(x[i]);
}

/* x >>= s over len limbs. */
static void shr_in_place(limb *x, mlsize_t len, uintnat s)
{
  mlsize_t k = s / 64, i;
  unsigned off = s % 64;
  if (k >= len) {
    memset(x, 0, len * LIMB_BYTES);
    return;
  }
  if (off == 0) {
    for (i = 0; i + k < len; i++) x[i] = x[i + k];
  } else {
    for (i = 0; i + k + 1 < len; i++)
      x[i] = (x[i + k] >> off) | (x[i + k + 1] << (64 - off));
    x[i] = x[i + k] >> off;
    i++;
  }
  for (; i < len; i++) x[i] = 0;
}

/* x <<= s over len limbs; the caller knows the result fits. */
static void shl_in_place(limb *x, mlsize_t len, uintnat s)
{
  mlsize_t k = s / 64, i;
  unsigned off = s % 64;
  for (i = len; i-- > k;) {
    limb v = x[i - k] << off;
    if (off != 0 && i > k) v |= x[i - k - 1] >> (64 - off);
    x[i] = v;
  }
  for (i = 0; i < k && i < len; i++) x[i] = 0;
}

/* Significant bits of the w-limb value x. */
static uintnat limb_bits(const limb *x, mlsize_t w)
{
  mlsize_t top = top_len(x, w);
  if (top == 0) return 0;
  return 64 * top - __builtin_clzll(x[top - 1]);
}

/* Nat.t limbs (31 bits each, no zero top limb) of the w-limb value x. */
static mlsize_t nat_len(const limb *x, mlsize_t w)
{
  return (limb_bits(x, w) + NAT_BITS - 1) / NAT_BITS;
}

/* Fill the fresh Nat.t block vr of nat_len(x, w) fields from x. */
static void fill_nat(value vr, const limb *x, mlsize_t w)
{
  mlsize_t i, len = Wosize_val(vr);
  for (i = 0; i < len; i++) {
    uintnat bit = (uintnat) NAT_BITS * i, k = bit / 64, off = bit % 64;
    limb v = x[k] >> off;
    if (off > 64 - NAT_BITS && k + 1 < w) v |= x[k + 1] << (64 - off);
    Store_field(vr, i, Val_long(v & (((limb) 1 << NAT_BITS) - 1)));
  }
}

/* The Nat.t of a w-limb value outside the OCaml heap. */
static value nat_of_scratch(const limb *x, mlsize_t w)
{
  CAMLparam0();
  CAMLlocal1(vr);
  mlsize_t len = nat_len(x, w);
  if (len == 0) CAMLreturn(Atom(0));
  vr = caml_alloc(len, 0);
  fill_nat(vr, x, w);
  CAMLreturn(vr);
}

/* acc + hi 2^128 += x y, for the column sum held in the locals acc (its
 * low two limbs) and hi (the third). */
#define ADD_PRODUCT(x, y)                       \
  do {                                          \
    dlimb p_ = (dlimb) (x) * (y);               \
    acc += p_;                                  \
    hi += acc < p_;                             \
  } while (0)

/* column + carry 2^128 += column k of a^2: the cross products
 * a_i a_(k-i) for lo <= i < k - i, summed once in acc and hi and then
 * doubled, and the diagonal a_(k/2)^2 when k is even. */
static inline __attribute__((always_inline)) void
add_square_column(dlimb *column, limb *carry, const limb *a, mlsize_t lo,
                  mlsize_t k)
{
  mlsize_t i;
  dlimb acc = 0;
  limb hi = 0;
  for (i = lo; i < k - i; i++) ADD_PRODUCT(a[i], a[k - i]);
  hi = (hi << 1) | (limb) (acc >> 127);
  acc <<= 1;
  if (k % 2 == 0) ADD_PRODUCT(a[k / 2], a[k / 2]);
  *column += acc;
  *carry += hi + (*column < acc);
}

/* r = a b R^-1 mod n, or a^2 R^-1 mod n when square (b is then unread),
 * for a < R and b < n, or a < n when squaring: (a b + M n) / R is then
 * below 2n, and one conditional subtraction makes it canonical.  Column
 * k < w picks the digit m_k of M = -a b n^-1 mod R that clears its low
 * limb and stores it in r[k]; column k >= w emits result limb k - w over
 * m_(k-w), which no later column reads.  r must not overlap a or b. */
static inline __attribute__((always_inline)) void
mont_columns(limb *r, const limb *a, const limb *b, const limb *n, limb ninv,
             mlsize_t w, int square)
{
  mlsize_t j, k;
  dlimb acc = 0;
  limb hi = 0;
  for (k = 0; k < w; k++) {
    if (square) add_square_column(&acc, &hi, a, 0, k);
    else for (j = 0; j <= k; j++) ADD_PRODUCT(a[j], b[k - j]);
    for (j = 0; j < k; j++) ADD_PRODUCT(r[j], n[k - j]);
    r[k] = (limb) acc * ninv;
    ADD_PRODUCT(r[k], n[0]);
    acc = (acc >> 64) | ((dlimb) hi << 64);
    hi = 0;
  }
  for (k = w; k < 2 * w - 1; k++) {
    if (square) add_square_column(&acc, &hi, a, k - w + 1, k);
    else for (j = k - w + 1; j < w; j++) ADD_PRODUCT(a[j], b[k - j]);
    for (j = k - w + 1; j < w; j++) ADD_PRODUCT(r[j], n[k - j]);
    r[k - w] = (limb) acc;
    acc = (acc >> 64) | ((dlimb) hi << 64);
    hi = 0;
  }
  r[w - 1] = (limb) acc;
  if ((limb) (acc >> 64) != 0 || geq(r, n, w)) sub_in_place(r, n, w);
}

#undef ADD_PRODUCT

static void mont_mul(limb *r, const limb *a, const limb *b, const limb *n,
                     limb ninv, mlsize_t w)
{
  mont_columns(r, a, b, n, ninv, w, 0);
}

static void mont_sqr(limb *r, const limb *a, const limb *n, limb ninv,
                     mlsize_t w)
{
  mont_columns(r, a, a, n, ninv, w, 1);
}

/* The kernel of an odd modulus: its limbs, then -n^-1 mod 2^64. */
CAMLprim value ppst_mont_kernel(value vnat)
{
  CAMLparam1(vnat);
  CAMLlocal1(vk);
  mlsize_t w = (nat_bits(vnat) + 63) / 64;
  limb *k, n0, inv;
  int i;
  vk = caml_alloc_string((w + 1) * LIMB_BYTES);
  k = (limb *) Bytes_val(vk);
  pack_nat(k, w, vnat);
  /* Newton's iteration doubles the correct low bits of n0^-1; an odd n0
   * is its own inverse mod 8, so five steps give 96 > 64 bits. */
  n0 = k[0];
  inv = n0;
  for (i = 0; i < 5; i++) inv *= 2 - n0 * inv;
  k[w] = (limb) 0 - inv;
  CAMLreturn(vk);
}

CAMLprim value ppst_mont_limbs_of_nat(value vw, value vnat)
{
  CAMLparam2(vw, vnat);
  CAMLlocal1(vr);
  mlsize_t w = Long_val(vw);
  if (nat_bits(vnat) > 64 * w)
    caml_invalid_argument("Montgomery: value wider than its context");
  vr = caml_alloc_string(w * LIMB_BYTES);
  pack_nat((limb *) Bytes_val(vr), w, vnat);
  CAMLreturn(vr);
}

CAMLprim value ppst_mont_nat_of_limbs(value vx)
{
  CAMLparam1(vx);
  CAMLlocal1(vr);
  mlsize_t w = caml_string_length(vx) / LIMB_BYTES;
  mlsize_t len = nat_len((const limb *) Bytes_val(vx), w);
  if (len == 0) CAMLreturn(Atom(0));
  vr = caml_alloc(len, 0);
  /* the allocation may have moved vx */
  fill_nat(vr, (const limb *) Bytes_val(vx), w);
  CAMLreturn(vr);
}

/* One block passed as both operands is squared. */
CAMLprim value ppst_mont_mul(value vk, value va, value vb)
{
  CAMLparam3(vk, va, vb);
  CAMLlocal1(vr);
  mlsize_t w = kernel_width(vk);
  const limb *n;
  check_width(va, w);
  check_width(vb, w);
  vr = caml_alloc_string(w * LIMB_BYTES);
  n = (const limb *) Bytes_val(vk);
  if (va == vb)
    mont_sqr((limb *) Bytes_val(vr), (const limb *) Bytes_val(va), n, n[w], w);
  else
    mont_mul((limb *) Bytes_val(vr), (const limb *) Bytes_val(va),
             (const limb *) Bytes_val(vb), n, n[w], w);
  CAMLreturn(vr);
}

/* The exponent length beyond which a window of k + 1 bits beats one of
 * k bits.  A window of k bits needs the odd powers x, x^3, ...,
 * x^(2^k - 1), and the scan makes about one product per k + 1 bits of
 * the exponent.  Widening it saves about nbits / ((k + 1)(k + 2)) of
 * those products and costs 2^(k-1) more table products, or two at
 * k = 1, where x^2 is new too.  So the width is 1 (the binary ladder, no
 * table) up to 12 bits, then 2, 3, 4, 5 and 6 beyond 12, 24, 80, 240
 * and 672 bits. */
static uintnat widening_length(uintnat k)
{
  uintnat added = k == 1 ? 2 : (uintnat) 1 << (k - 1);
  return added * (k + 1) * (k + 2);
}

/* The window width for an nbits-bit exponent. */
static uintnat window_width(uintnat nbits)
{
  uintnat width;
  for (width = 1; nbits > widening_length(width); width++)
    ;
  return width;
}

/* Limbs of scratch pow_limbs needs: the 2^(width-1) odd powers, x^2 and
 * two accumulators. */
static mlsize_t pow_scratch(uintnat nbits, mlsize_t w)
{
  return (((mlsize_t) 1 << (window_width(nbits) - 1)) + 3) * w;
}

#define EXP_BIT(e, i) (((e)[(i) / 64] >> ((i) % 64)) & 1)

/* r = x^e in Montgomery form, for x in form and a nonzero exponent e of
 * nbits bits in 64-bit limbs; scratch holds pow_scratch(nbits, w) limbs.
 * r may be x.  This is the kernel's one window loop. */
static void pow_limbs(limb *r, const limb *x, const limb *e, uintnat nbits,
                      const limb *n, limb ninv, mlsize_t w, limb *scratch)
{
  uintnat width = window_width(nbits), table = (uintnat) 1 << (width - 1);
  limb *odd = scratch, *x2, *acc, *tmp, *swap;
  long i, j, b, k;
  x2 = odd + table * w;
  acc = x2 + w;
  tmp = acc + w;
  memcpy(odd, x, w * LIMB_BYTES);
  if (table > 1) mont_sqr(x2, odd, n, ninv, w);
  for (k = 1; k < (long) table; k++)
    mont_mul(odd + k * w, odd + (k - 1) * w, x2, n, ninv, w);
/* acc = acc * y, through the spare buffer tmp */
#define ACC_TIMES(y)                            \
  do {                                          \
    mont_mul(tmp, acc, (y), n, ninv, w);        \
    swap = acc; acc = tmp; tmp = swap;          \
  } while (0)
/* acc = acc^2, the same way */
#define ACC_SQUARE()                            \
  do {                                          \
    mont_sqr(tmp, acc, n, ninv, w);             \
    swap = acc; acc = tmp; tmp = swap;          \
  } while (0)
  /* Scan from the top bit; each window [i .. j] is the widest that fits
   * and ends on a set bit, so its value is odd and in the table.  The
   * first window (the top bit is set) seeds the accumulator. */
  i = (long) nbits - 1;
  while (i >= 0) {
    if (!EXP_BIT(e, i)) {
      ACC_SQUARE();
      i--;
      continue;
    }
    j = i - (long) width + 1 > 0 ? i - (long) width + 1 : 0;
    while (!EXP_BIT(e, j)) j++;
    k = 0;
    for (b = i; b >= j; b--) k = (k << 1) | EXP_BIT(e, b);
    if (i == (long) nbits - 1) {
      memcpy(acc, odd + (k >> 1) * w, w * LIMB_BYTES);
    } else {
      for (b = i; b >= j; b--) ACC_SQUARE();
      ACC_TIMES(odd + (k >> 1) * w);
    }
    i = j - 1;
  }
#undef ACC_SQUARE
#undef ACC_TIMES
  memcpy(r, acc, w * LIMB_BYTES);
}

/* A fresh block of the w limbs at x. */
static value block_of_limbs(const limb *x, mlsize_t w)
{
  value vr = caml_alloc_string(w * LIMB_BYTES);
  memcpy(Bytes_val(vr), x, w * LIMB_BYTES);
  return vr;
}

/* x^e in Montgomery form for a Nat.t exponent e, R mod n when e = 0.  x
 * is a block in form, or, when vr2 is not unit, a Nat.t below R that a
 * product with vr2 = R^2 mod n takes into form. */
static value pow_entry(value vk, value vone, value vr2, value vx, value ve)
{
  CAMLparam5(vk, vone, vr2, vx, ve);
  CAMLlocal1(vr);
  mlsize_t w = kernel_width(vk);
  uintnat nbits = nat_bits(ve);
  mlsize_t elen = (nbits + 63) / 64;
  const limb *n;
  limb *scratch, *e, *x, *r;
  check_width(vone, w);
  if (vr2 == Val_unit) {
    check_width(vx, w);
  } else {
    check_width(vr2, w);
    if (nat_bits(vx) > 64 * w)
      caml_invalid_argument("Montgomery: value wider than its context");
  }
  if (nbits == 0) {
    vr = caml_alloc_string(w * LIMB_BYTES);
    memcpy(Bytes_val(vr), Bytes_val(vone), w * LIMB_BYTES);
    CAMLreturn(vr);
  }
  scratch = malloc((elen + 2 * w + pow_scratch(nbits, w)) * LIMB_BYTES);
  if (scratch == NULL) caml_raise_out_of_memory();
  e = scratch;
  x = e + elen;
  r = x + w;
  pack_nat(e, elen, ve);
  n = (const limb *) Bytes_val(vk);
  if (vr2 == Val_unit) {
    memcpy(x, Bytes_val(vx), w * LIMB_BYTES);
  } else {
    pack_nat(r, w, vx);
    mont_mul(x, r, (const limb *) Bytes_val(vr2), n, n[w], w);
  }
  pow_limbs(r, x, e, nbits, n, n[w], w, r + w);
  vr = block_of_limbs(r, w);
  free(scratch);
  CAMLreturn(vr);
}

/* x^e for x in form and a Nat.t exponent e; [one] is R mod n, the
 * result for e = 0. */
CAMLprim value ppst_mont_pow(value vk, value vone, value vx, value ve)
{
  return pow_entry(vk, vone, Val_unit, vx, ve);
}

/* The same for a Nat.t x, taken into form first. */
CAMLprim value ppst_mont_pow_nat(value vk, value vone, value vr2, value vx,
                                 value ve)
{
  return pow_entry(vk, vone, vr2, vx, ve);
}

/* gcd of two odd single limbs. */
static limb gcd_odd_limb(limb a, limb b)
{
  while (a != b) {
    if (a > b) {
      a -= b;
      a >>= __builtin_ctzll(a);
    } else {
      b -= a;
      b >>= __builtin_ctzll(b);
    }
  }
  return a;
}

/* gcd(u, v) of two nonzero w-limb values by Stein's binary algorithm:
 * strip the common power of two, then subtract the smaller odd value
 * from the larger and strip the difference's twos until it vanishes.
 * Both are overwritten; the gcd is left in the one returned. */
static limb *gcd_limbs(limb *u, limb *v, mlsize_t w)
{
  uintnat za = ctz_limbs(u), zb = ctz_limbs(v), shift = za < zb ? za : zb;
  mlsize_t ul, vl, tl;
  limb *t;
  shr_in_place(u, w, za);
  shr_in_place(v, w, zb);
  ul = top_len(u, w);
  vl = top_len(v, w);
  /* u and v are odd; keep u <= v and replace v by (v - u) / 2^k */
  for (;;) {
    int c = cmp_len(u, ul, v, vl);
    if (c == 0) break;
    if (c > 0) {
      t = u; u = v; v = t;
      tl = ul; ul = vl; vl = tl;
    }
    if (vl == 1) {
      u[0] = gcd_odd_limb(u[0], v[0]);
      break;
    }
    sub_len(v, vl, u, ul);
    shr_in_place(v, vl, ctz_limbs(v));
    vl = top_len(v, vl);
  }
  /* g 2^shift divides both operands, so it fits in w limbs */
  shl_in_place(u, w, shift);
  return u;
}

/* Two Nat.t values packed into 2 w limbs of fresh scratch, w the wider's
 * limbs; both must be nonzero. */
static limb *pack_pair(value va, value vb, mlsize_t *w)
{
  uintnat abits = nat_bits(va), bbits = nat_bits(vb);
  limb *scratch;
  *w = ((abits > bbits ? abits : bbits) + 63) / 64;
  scratch = malloc(2 * *w * LIMB_BYTES);
  if (scratch == NULL) caml_raise_out_of_memory();
  pack_nat(scratch, *w, va);
  pack_nat(scratch + *w, *w, vb);
  return scratch;
}

/* gcd(a, b) of two Nat.t values. */
CAMLprim value ppst_mont_gcd(value va, value vb)
{
  CAMLparam2(va, vb);
  CAMLlocal1(vr);
  mlsize_t w;
  limb *scratch;
  if (nat_bits(va) == 0) CAMLreturn(vb);
  if (nat_bits(vb) == 0) CAMLreturn(va);
  scratch = pack_pair(va, vb, &w);
  vr = nat_of_scratch(gcd_limbs(scratch, scratch + w, w), w);
  free(scratch);
  CAMLreturn(vr);
}

/* gcd(a, b) = 1 for two Nat.t values, with no Nat.t result. */
CAMLprim value ppst_mont_coprime(value va, value vb)
{
  uintnat abits = nat_bits(va), bbits = nat_bits(vb);
  mlsize_t w;
  limb *scratch, *g;
  int coprime;
  /* gcd(0, b) = b, which is 1 when it has one bit */
  if (abits == 0 || bbits == 0) return Val_bool(abits + bbits == 1);
  scratch = pack_pair(va, vb, &w);
  g = gcd_limbs(scratch, scratch + w, w);
  coprime = g[0] == 1 && top_len(g, w) == 1;
  free(scratch);
  return Val_bool(coprime);
}

/* x = x / 2 mod m for x in [0, m) and odd m of w limbs. */
static void halve_mod(limb *x, const limb *m, mlsize_t w)
{
  mlsize_t i;
  limb carry = 0;
  if (x[0] & 1) {
    dlimb c = 0;
    for (i = 0; i < w; i++) {
      c = (dlimb) x[i] + m[i] + (limb) (c >> 64);
      x[i] = (limb) c;
    }
    carry = (limb) (c >> 64);
  }
  for (i = 0; i + 1 < w; i++) x[i] = (x[i] >> 1) | (x[i + 1] << 63);
  x[w - 1] = (x[w - 1] >> 1) | (carry << 63);
}

/* x = x - y mod m for x, y in [0, m). */
static void sub_mod(limb *x, const limb *y, const limb *m, mlsize_t w)
{
  mlsize_t i;
  limb borrow = 0;
  dlimb c = 0;
  for (i = 0; i < w; i++) {
    dlimb d = (dlimb) x[i] - y[i] - borrow;
    x[i] = (limb) d;
    borrow = (limb) (d >> 64) & 1;
  }
  if (borrow)
    for (i = 0; i < w; i++) {
      c = (dlimb) x[i] + m[i] + (limb) (c >> 64);
      x[i] = (limb) c;
    }
}

/* u = u / 2^k for the k trailing zeros of a nonzero u, and x = x / 2^k
 * mod m alongside, so that x a = u mod m still holds. */
static mlsize_t strip_twos(limb *u, mlsize_t ul, limb *x, const limb *m, mlsize_t w)
{
  uintnat k = ctz_limbs(u), i;
  shr_in_place(u, ul, k);
  for (i = 0; i < k; i++) halve_mod(x, m, w);
  return top_len(u, ul);
}

/* a^-1 mod m for odd m > 1 and a < 2^(64w), w the limbs of m, by the
 * binary extended Euclid: x1 a = u and x2 a = v (mod m) hold throughout,
 * u and v odd after each strip, and the larger loses the smaller until
 * they meet at gcd(a, m).  Returns the zero Nat.t when a is not a unit:
 * no unit's inverse is 0 modulo m > 1. */
CAMLprim value ppst_mont_invert(value va, value vm)
{
  CAMLparam2(va, vm);
  CAMLlocal1(vr);
  mlsize_t w = (nat_bits(vm) + 63) / 64, ul, vl;
  limb *scratch, *m, *u, *v, *x1, *x2, *inv = NULL;
  if (w == 0 || (Long_val(Field(vm, 0)) & 1) == 0)
    caml_invalid_argument("Modular.invert: even modulus");
  if (nat_bits(va) > 64 * w)
    caml_invalid_argument("Modular.invert: value wider than its modulus");
  scratch = malloc(5 * w * LIMB_BYTES);
  if (scratch == NULL) caml_raise_out_of_memory();
  m = scratch;
  u = m + w;
  v = u + w;
  x1 = v + w;
  x2 = x1 + w;
  pack_nat(m, w, vm);
  pack_nat(u, w, va);
  memcpy(v, m, w * LIMB_BYTES);
  memset(x1, 0, 2 * w * LIMB_BYTES);
  x1[0] = 1;
  ul = top_len(u, w);
  vl = top_len(v, w);
  if (ul != 0) {
    ul = strip_twos(u, ul, x1, m, w);
    for (;;) {
      int c;
      if (ul == 1 && u[0] == 1) { inv = x1; break; }
      if (vl == 1 && v[0] == 1) { inv = x2; break; }
      c = cmp_len(u, ul, v, vl);
      if (c == 0) break; /* gcd(a, m) = u > 1 */
      if (c > 0) {
        sub_len(u, ul, v, vl);
        sub_mod(x1, x2, m, w);
        ul = strip_twos(u, ul, x1, m, w);
      } else {
        sub_len(v, vl, u, ul);
        sub_mod(x2, x1, m, w);
        vl = strip_twos(v, vl, x2, m, w);
      }
    }
  }
  if (inv != NULL) vr = nat_of_scratch(inv, w);
  else vr = Atom(0);
  free(scratch);
  CAMLreturn(vr);
}

/* ------------------------------------------------------------------
 * Paillier's operations, one entry each.
 */

/* r = a b over alen + blen limbs; r must not overlap a or b. */
static void mul_limbs(limb *r, const limb *a, mlsize_t alen, const limb *b,
                      mlsize_t blen)
{
  mlsize_t i, j;
  memset(r, 0, (alen + blen) * LIMB_BYTES);
  for (i = 0; i < alen; i++) {
    limb carry = 0;
    for (j = 0; j < blen; j++) {
      dlimb t = (dlimb) a[i] * b[j] + r[i + j] + carry;
      r[i + j] = (limb) t;
      carry = (limb) (t >> 64);
    }
    r[i + blen] = carry;
  }
}

/* x += y for x of xlen >= ylen limbs; the caller knows the sum fits. */
static void add_limbs(limb *x, mlsize_t xlen, const limb *y, mlsize_t ylen)
{
  mlsize_t i;
  limb carry = 0;
  for (i = 0; i < xlen && (i < ylen || carry); i++) {
    dlimb s = (dlimb) x[i] + (i < ylen ? y[i] : 0) + carry;
    x[i] = (limb) s;
    carry = (limb) (s >> 64);
  }
}

/* x = x + y mod m for x, y in [0, m). */
static void add_mod(limb *x, const limb *y, const limb *m, mlsize_t w)
{
  mlsize_t i;
  limb carry = 0;
  for (i = 0; i < w; i++) {
    dlimb s = (dlimb) x[i] + y[i] + carry;
    x[i] = (limb) s;
    carry = (limb) (s >> 64);
  }
  if (carry || geq(x, m, w)) sub_in_place(x, m, w);
}

/* x -= d y for x of xlen >= ylen limbs; returns the borrow out of the
 * top, nonzero when d y exceeded x. */
static limb submul(limb *x, mlsize_t xlen, const limb *y, mlsize_t ylen, limb d)
{
  mlsize_t j;
  limb carry = 0;
  for (j = 0; j < ylen; j++) {
    dlimb prod = (dlimb) d * y[j] + carry;
    limb lo = (limb) prod;
    carry = (limb) (prod >> 64) + (x[j] < lo);
    x[j] -= lo;
  }
  for (; j < xlen && carry; j++) {
    limb old = x[j];
    x[j] -= carry;
    carry = old < carry;
  }
  return carry;
}

/* A key's context is one Bytes.t of limbs: a header (the enum below) of
 * the moduli's widths and of the offsets of their kernels and of the
 * constants, then the sections.  Each kernel is followed by its modulus
 * m's folding table, R^(i+2) mod m for i < ceil(w_n2 / w): R^2 mod m
 * first, and enough entries to fold any value of n^2's width w_n2.
 * n^2's table is R^2 mod n^2 alone. */
enum { MOD_P, MOD_Q, MOD_P2, MOD_Q2, MOD_N2, KEY_MODULI };
enum {
  KEY_WIDTH = 0,            /* KEY_MODULI widths, then */
  KEY_AT = KEY_MODULI,      /* KEY_MODULI kernel offsets, then offsets of */
  KEY_PM1 = 2 * KEY_MODULI, /* p - 1 */
  KEY_QM1,                  /* q - 1 */
  KEY_HP,                   /* hp R mod p */
  KEY_HQ,                   /* hq R^2 mod q */
  KEY_PINV_Q,               /* p^-1 mod q */
  KEY_P2INV_Q2,             /* p^-2 mod q^2 */
  KEY_HEADER
};

struct modulus {
  const limb *n;    /* w limbs */
  limb ninv;        /* -n^-1 mod 2^64 */
  mlsize_t w;
  const limb *fold; /* R^(i+2) mod n */
};

static struct modulus modulus_of(const limb *key, int i)
{
  struct modulus m;
  m.w = key[KEY_WIDTH + i];
  m.n = key + key[KEY_AT + i];
  m.ninv = m.n[m.w];
  m.fold = m.n + m.w + 1;
  return m;
}

static mlsize_t fold_count(mlsize_t w, mlsize_t wn2)
{
  return (wn2 + w - 1) / w;
}

/* A key's context from its parts, in this order: the kernel and
 * R^2 mod m of p, q, p^2, q^2 and n^2, then hp R mod p, hq R^2 mod q,
 * p^-1 mod q and p^-2 mod q^2 (Montgomery.crt_create). */
CAMLprim value ppst_mont_crt(value vparts)
{
  CAMLparam1(vparts);
  CAMLlocal1(vkey);
  static const int constant_modulus[] = { MOD_P, MOD_Q, MOD_Q, MOD_Q2 };
  mlsize_t w[KEY_MODULI], at, wn2, i, j;
  limb *key;
  if (Wosize_val(vparts) != 2 * KEY_MODULI + 4)
    caml_invalid_argument("Montgomery.crt_create: wrong part count");
  for (i = 0; i < KEY_MODULI; i++) {
    w[i] = kernel_width(Field(vparts, 2 * i));
    check_width(Field(vparts, 2 * i + 1), w[i]);
  }
  for (i = 0; i < 4; i++)
    check_width(Field(vparts, 2 * KEY_MODULI + i), w[constant_modulus[i]]);
  wn2 = w[MOD_N2];
  at = KEY_HEADER;
  for (i = 0; i < KEY_MODULI; i++)
    at += w[i] + 1 + fold_count(w[i], wn2) * w[i];
  at += 2 * w[MOD_P] + 3 * w[MOD_Q] + w[MOD_Q2];
  vkey = caml_alloc_string(at * LIMB_BYTES);
  key = (limb *) Bytes_val(vkey);
  at = KEY_HEADER;
  for (i = 0; i < KEY_MODULI; i++) {
    limb *kernel = key + at, *fold = kernel + w[i] + 1;
    key[KEY_WIDTH + i] = w[i];
    key[KEY_AT + i] = at;
    memcpy(kernel, Bytes_val(Field(vparts, 2 * i)), (w[i] + 1) * LIMB_BYTES);
    memcpy(fold, Bytes_val(Field(vparts, 2 * i + 1)), w[i] * LIMB_BYTES);
    /* R^(j+1) R^2 R^-1 = R^(j+2) */
    for (j = 1; j < fold_count(w[i], wn2); j++)
      mont_mul(fold + j * w[i], fold + (j - 1) * w[i], fold, kernel,
               kernel[w[i]], w[i]);
    at += w[i] + 1 + fold_count(w[i], wn2) * w[i];
  }
  /* the odd p and q less one */
  for (i = 0; i < 2; i++) {
    key[KEY_PM1 + i] = at;
    memcpy(key + at, key + key[KEY_AT + i], w[i] * LIMB_BYTES);
    key[at] -= 1;
    at += w[i];
  }
  for (i = 0; i < 4; i++) {
    key[KEY_HP + i] = at;
    memcpy(key + at, Bytes_val(Field(vparts, 2 * KEY_MODULI + i)),
           w[constant_modulus[i]] * LIMB_BYTES);
    at += w[constant_modulus[i]];
  }
  CAMLreturn(vkey);
}

/* r = x R mod m, the Montgomery form of x mod m, for x of xlen limbs
 * within m's folding table: with x the sum of its w-limb chunks
 * X_i R^i, the product of X_i and R^(i+2) mod m is X_i R^(i+1) mod m,
 * the form of X_i R^i, and the forms add up mod m.  t is 2 w limbs of
 * scratch; r must not overlap x. */
static void fold(limb *r, const limb *x, mlsize_t xlen,
                 const struct modulus *m, limb *t)
{
  mlsize_t i, w = m->w;
  limb *top = t + w;
  memset(r, 0, w * LIMB_BYTES);
  for (i = 0; i * w < xlen; i++) {
    const limb *chunk = x + i * w;
    if (xlen - i * w < w) {
      memset(top, 0, w * LIMB_BYTES);
      memcpy(top, chunk, (xlen - i * w) * LIMB_BYTES);
      chunk = top;
    }
    mont_mul(t, chunk, m->fold + i * w, m->n, m->ninv, w);
    add_mod(r, t, m->n, w);
  }
}

/* l = (x - 1) / m for x of xw limbs, m odd of mw limbs and xw >= 2 mw - 1
 * (x < m^2 ensures it), by exact division (Jebelean 1993): each
 * quotient limb is the remainder's low limb times minv = m^-1 mod 2^64,
 * and taking its multiple of m clears that limb.  Returns 1 when m
 * divides x - 1, else 0 with l garbage.  Overwrites x. */
static int exact_div(limb *l, limb *x, mlsize_t xw, const limb *m, mlsize_t mw,
                     limb minv)
{
  mlsize_t i;
  for (i = 0; i < xw; i++)
    if (x[i]-- != 0) break;
  if (i == xw) return 0; /* x = 0 */
  for (i = 0; i < mw; i++) {
    l[i] = x[i] * minv;
    if (submul(x + i, xw - i, m, mw, l[i]) != 0) return 0;
  }
  return top_len(x, xw) == 0;
}

/* Scratch for one half of a decryption or a noise: two values mod a
 * prime square, then the folding and power scratch. */
static mlsize_t half_scratch(uintnat ebits, mlsize_t w2)
{
  return 2 * w2 + pow_scratch(ebits, w2);
}

/* l = L(c^(m-1) mod m^2) = (x - 1) / m for a prime m, of m's w limbs: c
 * folded into form mod m^2, its power, out of form and divided exactly.
 * Returns 0 when c is not a unit mod m, x - 1 then being no multiple of
 * m.  one is 1 in m^2's width. */
static int crt_l(limb *l, const limb *c, mlsize_t clen, const struct modulus *m,
                 const struct modulus *m2, const limb *mm1, const limb *one,
                 limb *work)
{
  limb *x = work, *y = x + m2->w, *t = y + m2->w;
  fold(x, c, clen, m2, t);
  pow_limbs(y, x, mm1, limb_bits(mm1, m->w), m2->n, m2->ninv, m2->w, t);
  mont_mul(x, y, one, m2->n, m2->ninv, m2->w);
  return exact_div(l, x, m2->w, m->n, m->w, 0 - m->ninv);
}

static void check_nat_width(value v, mlsize_t w)
{
  if (nat_bits(v) > 64 * w)
    caml_invalid_argument("Montgomery: value wider than its context");
}

/* The plaintext of c < R_n2 under a key's context, as Some m, or None
 * when c is not a unit mod n. */
CAMLprim value ppst_mont_crt_decrypt(value vkey, value vc)
{
  CAMLparam2(vkey, vc);
  CAMLlocal1(vm);
  const limb *key = (const limb *) Bytes_val(vkey);
  struct modulus p = modulus_of(key, MOD_P), q = modulus_of(key, MOD_Q);
  struct modulus p2 = modulus_of(key, MOD_P2), q2 = modulus_of(key, MOD_Q2);
  mlsize_t w2 = p2.w > q2.w ? p2.w : q2.w, clen = (nat_bits(vc) + 63) / 64;
  uintnat pbits = limb_bits(p.n, p.w), qbits = limb_bits(q.n, q.w);
  limb *scratch, *c, *one, *lp, *lq, *mp, *a, *b, *h, *m, *work;
  int unit;
  check_nat_width(vc, key[KEY_WIDTH + MOD_N2]);
  scratch = malloc((clen + 9 * w2 + half_scratch(pbits > qbits ? pbits : qbits, w2))
                   * LIMB_BYTES);
  if (scratch == NULL) caml_raise_out_of_memory();
  c = scratch;
  one = c + clen;
  lp = one + w2;
  lq = lp + w2;
  mp = lq + w2;
  a = mp + w2;
  b = a + w2;
  h = b + w2;
  m = h + w2; /* 2 w2 limbs */
  work = m + 2 * w2;
  pack_nat(c, clen, vc);
  memset(one, 0, w2 * LIMB_BYTES);
  one[0] = 1;
  unit = crt_l(lp, c, clen, &p, &p2, key + key[KEY_PM1], one, work)
    && crt_l(lq, c, clen, &q, &q2, key + key[KEY_QM1], one, work);
  if (unit) {
    /* m_p = L_p hp mod p, m_q R mod q, then Garner:
     * m = m_p + p ((m_q - m_p) p^-1 mod q), below n. */
    mont_mul(mp, lp, key + key[KEY_HP], p.n, p.ninv, p.w);
    mont_mul(a, lq, key + key[KEY_HQ], q.n, q.ninv, q.w);
    fold(b, mp, p.w, &q, work);
    sub_mod(a, b, q.n, q.w);
    mont_mul(h, a, key + key[KEY_PINV_Q], q.n, q.ninv, q.w);
    mul_limbs(m, p.n, p.w, h, q.w);
    add_limbs(m, p.w + q.w, mp, p.w);
    vm = caml_alloc_some(nat_of_scratch(m, p.w + q.w));
  }
  free(scratch);
  CAMLreturn(unit ? vm : Val_none);
}

/* gcd(c, n) = 1 for c < R_n2: c folded mod p and mod q is nonzero. */
CAMLprim value ppst_mont_crt_is_unit(value vkey, value vc)
{
  const limb *key = (const limb *) Bytes_val(vkey);
  struct modulus p = modulus_of(key, MOD_P), q = modulus_of(key, MOD_Q);
  mlsize_t w = p.w > q.w ? p.w : q.w, clen = (nat_bits(vc) + 63) / 64;
  limb *scratch, *r;
  int unit;
  check_nat_width(vc, key[KEY_WIDTH + MOD_N2]);
  scratch = malloc((clen + 3 * w) * LIMB_BYTES);
  if (scratch == NULL) caml_raise_out_of_memory();
  r = scratch + clen;
  pack_nat(scratch, clen, vc);
  fold(r, scratch, clen, &p, r + w);
  unit = top_len(r, p.w) != 0;
  if (unit) {
    fold(r, scratch, clen, &q, r + w);
    unit = top_len(r, q.w) != 0;
  }
  free(scratch);
  return Val_bool(unit);
}

/* rm = ((r mod m)^o mod m)^m mod m^2 in form mod m^2, o the other
 * prime: r^n mod m^2, a Teichmueller lift, since x^m mod m^2 depends
 * only on x mod m.  one is 1 in m's width. */
static void lift(limb *rm, const limb *r, mlsize_t rlen, const struct modulus *m,
                 const struct modulus *m2, const struct modulus *o,
                 const limb *one, limb *work)
{
  limb *x = work, *y = x + m2->w, *t = y + m2->w;
  fold(x, r, rlen, m, t);
  pow_limbs(y, x, o->n, limb_bits(o->n, o->w), m->n, m->ninv, m->w, t);
  mont_mul(x, y, one, m->n, m->ninv, m->w);
  fold(y, x, m->w, m2, t);
  pow_limbs(rm, y, m->n, limb_bits(m->n, m->w), m2->n, m2->ninv, m2->w, t);
}

/* r^n mod n^2 in Montgomery form mod n^2, for r < R_n2, by the two lifts
 * and Garner mod q^2: rp + p^2 ((rq - rp) p^-2 mod q^2). */
CAMLprim value ppst_mont_crt_noise(value vkey, value vr)
{
  CAMLparam2(vkey, vr);
  CAMLlocal1(vn);
  const limb *key = (const limb *) Bytes_val(vkey);
  struct modulus p = modulus_of(key, MOD_P), q = modulus_of(key, MOD_Q);
  struct modulus p2 = modulus_of(key, MOD_P2), q2 = modulus_of(key, MOD_Q2);
  struct modulus n2 = modulus_of(key, MOD_N2);
  mlsize_t w2 = p2.w > q2.w ? p2.w : q2.w, rlen = (nat_bits(vr) + 63) / 64;
  uintnat pbits = limb_bits(p.n, p.w), qbits = limb_bits(q.n, q.w);
  limb *scratch, *r, *one, *rp, *rq, *a, *h, *v, *out, *work;
  check_nat_width(vr, n2.w);
  scratch = malloc((rlen + 10 * w2 + half_scratch(pbits > qbits ? pbits : qbits, w2))
                   * LIMB_BYTES);
  if (scratch == NULL) caml_raise_out_of_memory();
  r = scratch;
  one = r + rlen;
  rp = one + w2;
  rq = rp + w2;
  a = rq + w2;
  h = a + w2;
  v = h + w2;   /* 2 w2 limbs */
  out = v + 2 * w2; /* 2 w2 limbs */
  work = out + 2 * w2;
  pack_nat(r, rlen, vr);
  memset(one, 0, w2 * LIMB_BYTES);
  one[0] = 1;
  lift(a, r, rlen, &p, &p2, &q, one, work);
  mont_mul(rp, a, one, p2.n, p2.ninv, p2.w);
  lift(rq, r, rlen, &q, &q2, &p, one, work);
  fold(a, rp, p2.w, &q2, work);
  sub_mod(rq, a, q2.n, q2.w);
  mont_mul(h, rq, key + key[KEY_P2INV_Q2], q2.n, q2.ninv, q2.w);
  mul_limbs(v, p2.n, p2.w, h, q2.w);
  add_limbs(v, p2.w + q2.w, rp, p2.w);
  /* v < n^2, so its limbs past n^2's width are zero */
  mont_mul(out, v, n2.fold, n2.n, n2.ninv, n2.w);
  vn = block_of_limbs(out, n2.w);
  free(scratch);
  CAMLreturn(vn);
}

/* (1 + m n) y in Montgomery form, for y in form and 1 + m n < R: the
 * encryption step g^m r^n with g = n + 1, as g^m = 1 + m n mod n^2 when
 * m < n.  R^2 mod the modulus takes 1 + m n into form. */
CAMLprim value ppst_mont_seal(value vk, value vr2, value vn, value vm, value vy)
{
  CAMLparam5(vk, vr2, vn, vm, vy);
  CAMLlocal1(vr);
  static const limb one = 1;
  mlsize_t w = kernel_width(vk);
  mlsize_t nlen = (nat_bits(vn) + 63) / 64, mlen = (nat_bits(vm) + 63) / 64;
  mlsize_t tlen = (nlen + mlen > w ? nlen + mlen : w) + 1;
  const limb *k;
  limb *scratch, *n, *m, *t, *f, *r;
  check_width(vr2, w);
  check_width(vy, w);
  scratch = malloc((nlen + mlen + tlen + 2 * w) * LIMB_BYTES);
  if (scratch == NULL) caml_raise_out_of_memory();
  n = scratch;
  m = n + nlen;
  t = m + mlen;
  f = t + tlen;
  r = f + w;
  pack_nat(n, nlen, vn);
  pack_nat(m, mlen, vm);
  memset(t, 0, tlen * LIMB_BYTES);
  mul_limbs(t, m, mlen, n, nlen);
  add_limbs(t, tlen, &one, 1);
  if (top_len(t, tlen) > w) {
    free(scratch);
    caml_invalid_argument("Montgomery: value wider than its context");
  }
  k = (const limb *) Bytes_val(vk);
  mont_mul(f, t, (const limb *) Bytes_val(vr2), k, k[w], w);
  mont_mul(r, f, (const limb *) Bytes_val(vy), k, k[w], w);
  vr = block_of_limbs(r, w);
  free(scratch);
  CAMLreturn(vr);
}
