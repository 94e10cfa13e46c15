/* Montgomery multiplication, squaring and exponentiation over 64-bit
 * limbs, and the binary GCD and inverse of modular.ml.
 *
 * montgomery.ml holds a Montgomery-form value as a Bytes.t of exactly w
 * native-endian 64-bit limbs, little-endian in limb order, holding a
 * residue in [0, n).  A context is a "kernel" Bytes.t of w + 1 limbs:
 * the odd modulus n, then n' = -n^-1 mod 2^64.  R = 2^(64w).
 *
 * Products and squares are product scanning (FIPS in Koc, Acar and
 * Kaliski 1996): column k of a b + M n is summed in a three-limb
 * accumulator held in registers, an unsigned __int128 and a carry limb,
 * and a square takes each cross product once.  Exponentiation is a
 * sliding window over squares whose width grows with the exponent's
 * length.  GCD (Stein) and the inverse modulo an odd m run on the same
 * limbs.  The stubs keep no global state: a call writes only its own
 * result block and the heap scratch it frees before returning, so any
 * number of Domains may share one context.
 *
 * Every operand's byte length is checked against its context's width.
 * Two contexts are one OCaml type, and a read past the end of an OCaml
 * block is invisible to AddressSanitizer, so this check is what stops a
 * value built under one modulus from being read under a wider one.
 *
 * Not constant-time: the final subtraction, the window width and
 * lookups, and every step of the GCD and the inverse depend on the
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
  uintnat top, bits = 0;
  while (len > 0 && Long_val(Field(nat, len - 1)) == 0) len--;
  if (len == 0) return 0;
  for (top = Long_val(Field(nat, len - 1)); top != 0; top >>= 1) bits++;
  return NAT_BITS * (len - 1) + bits;
}

static int nat_bit(value nat, uintnat i)
{
  return (Long_val(Field(nat, i / NAT_BITS)) >> (i % NAT_BITS)) & 1;
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

/* Nat.t limbs (31 bits each, no zero top limb) of the w-limb value x. */
static mlsize_t nat_len(const limb *x, mlsize_t w)
{
  mlsize_t top = top_len(x, w);
  uintnat bits;
  limb high;
  if (top == 0) return 0;
  bits = 64 * (top - 1);
  for (high = x[top - 1]; high != 0; high >>= 1) bits++;
  return (bits + NAT_BITS - 1) / NAT_BITS;
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

/* x^e in Montgomery form for x in form and a Nat.t exponent e; [one] is
 * R mod n, the result for e = 0. */
CAMLprim value ppst_mont_pow(value vk, value vone, value vx, value ve)
{
  CAMLparam4(vk, vone, vx, ve);
  CAMLlocal1(vr);
  mlsize_t w = kernel_width(vk);
  uintnat nbits = nat_bits(ve), width, table;
  const limb *n;
  limb *odd, *x2, *acc, *tmp, *swap, ninv;
  long i, j, b, k;
  check_width(vone, w);
  check_width(vx, w);
  vr = caml_alloc_string(w * LIMB_BYTES);
  if (nbits == 0) {
    memcpy(Bytes_val(vr), Bytes_val(vone), w * LIMB_BYTES);
    CAMLreturn(vr);
  }
  for (width = 1; nbits > widening_length(width); width++)
    ;
  table = (uintnat) 1 << (width - 1);
  /* the odd powers, x^2 and two accumulators */
  odd = malloc((table + 3) * w * LIMB_BYTES);
  if (odd == NULL) caml_raise_out_of_memory();
  n = (const limb *) Bytes_val(vk);
  ninv = n[w];
  x2 = odd + table * w;
  acc = x2 + w;
  tmp = acc + w;
  memcpy(odd, Bytes_val(vx), w * LIMB_BYTES);
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
    if (!nat_bit(ve, i)) {
      ACC_SQUARE();
      i--;
      continue;
    }
    j = i - (long) width + 1 > 0 ? i - (long) width + 1 : 0;
    while (!nat_bit(ve, j)) j++;
    k = 0;
    for (b = i; b >= j; b--) k = (k << 1) | nat_bit(ve, b);
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
  memcpy(Bytes_val(vr), acc, w * LIMB_BYTES);
  free(odd);
  CAMLreturn(vr);
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

/* gcd(a, b) of two Nat.t values by Stein's binary algorithm: strip the
 * common power of two, then subtract the smaller odd value from the
 * larger and strip the difference's twos until it vanishes. */
CAMLprim value ppst_mont_gcd(value va, value vb)
{
  CAMLparam2(va, vb);
  CAMLlocal1(vr);
  uintnat abits = nat_bits(va), bbits = nat_bits(vb), shift, za, zb;
  mlsize_t w = ((abits > bbits ? abits : bbits) + 63) / 64, ul, vl, tl;
  limb *scratch, *u, *v, *t;
  if (abits == 0) CAMLreturn(vb);
  if (bbits == 0) CAMLreturn(va);
  scratch = malloc(2 * w * LIMB_BYTES);
  if (scratch == NULL) caml_raise_out_of_memory();
  u = scratch;
  v = scratch + w;
  pack_nat(u, w, va);
  pack_nat(v, w, vb);
  za = ctz_limbs(u);
  zb = ctz_limbs(v);
  shift = za < zb ? za : zb;
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
  vr = nat_of_scratch(u, w);
  free(scratch);
  CAMLreturn(vr);
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
