/* Montgomery multiplication and exponentiation over 64-bit limbs.
 *
 * montgomery.ml holds a Montgomery-form value as a Bytes.t of exactly w
 * native-endian 64-bit limbs, little-endian in limb order, holding a
 * residue in [0, n).  A context is a "kernel" Bytes.t of w + 1 limbs:
 * the odd modulus n, then n' = -n^-1 mod 2^64.  R = 2^(64w).
 *
 * Products are CIOS (Koc, Acar and Kaliski 1996) with unsigned __int128
 * accumulators; exponentiation is a width-4 sliding window.  The stubs
 * keep no global state: a call writes only its own result block and the
 * heap scratch it frees before returning, so any number of Domains may
 * share one context.
 *
 * Every operand's byte length is checked against its context's width.
 * Two contexts are one OCaml type, and a read past the end of an OCaml
 * block is invisible to AddressSanitizer, so this check is what stops a
 * value built under one modulus from being read under a wider one.
 *
 * Not constant-time: the final subtraction and the window lookups depend
 * on the operands (SECURITY.md).
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
#define WINDOW 4
#define TABLE (1 << (WINDOW - 1)) /* odd powers x, x^3, ..., x^15 */

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

/* r = a b R^-1 mod n for a < R and b < n, so the result lies in [0, n).
 * r is CIOS's running sum t[0 .. w-1]; t[w] and t[w+1] live in
 * registers.  r must not overlap a or b. */
static void mont_mul(limb *r, const limb *a, const limb *b, const limb *n,
                     limb ninv, mlsize_t w)
{
  mlsize_t i, j;
  limb t_w = 0, t_w1, m;
  dlimb c;
  memset(r, 0, w * LIMB_BYTES);
  for (i = 0; i < w; i++) {
    limb bi = b[i];
    c = 0;
    for (j = 0; j < w; j++) {
      c = (dlimb) a[j] * bi + r[j] + (limb) (c >> 64);
      r[j] = (limb) c;
    }
    c = (dlimb) t_w + (limb) (c >> 64);
    t_w = (limb) c;
    t_w1 = (limb) (c >> 64);
    /* add m n, which clears the low limb, and shift down one limb */
    m = r[0] * ninv;
    c = (dlimb) m * n[0] + r[0];
    for (j = 1; j < w; j++) {
      c = (dlimb) m * n[j] + r[j] + (limb) (c >> 64);
      r[j - 1] = (limb) c;
    }
    c = (dlimb) t_w + (limb) (c >> 64);
    r[w - 1] = (limb) c;
    t_w = t_w1 + (limb) (c >> 64);
  }
  /* t < 2n: one conditional subtraction makes it canonical */
  if (t_w != 0 || geq(r, n, w)) sub_in_place(r, n, w);
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
  mlsize_t w = caml_string_length(vx) / LIMB_BYTES, top = w, len, i;
  const limb *x = (const limb *) Bytes_val(vx);
  uintnat bits;
  limb high;
  while (top > 0 && x[top - 1] == 0) top--;
  if (top == 0) CAMLreturn(Atom(0));
  bits = 64 * (top - 1);
  for (high = x[top - 1]; high != 0; high >>= 1) bits++;
  len = (bits + NAT_BITS - 1) / NAT_BITS;
  vr = caml_alloc(len, 0);
  x = (const limb *) Bytes_val(vx); /* the allocation may have moved vx */
  for (i = 0; i < len; i++) {
    uintnat bit = (uintnat) NAT_BITS * i, k = bit / 64, off = bit % 64;
    limb v = x[k] >> off;
    if (off > 64 - NAT_BITS && k + 1 < w) v |= x[k + 1] << (64 - off);
    Store_field(vr, i, Val_long(v & (((limb) 1 << NAT_BITS) - 1)));
  }
  CAMLreturn(vr);
}

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
  mont_mul((limb *) Bytes_val(vr), (const limb *) Bytes_val(va),
           (const limb *) Bytes_val(vb), n, n[w], w);
  CAMLreturn(vr);
}

/* x^e in Montgomery form for x in form and a Nat.t exponent e; [one] is
 * R mod n, the result for e = 0.  Exponents of at most WINDOW bits take
 * the plain binary ladder: the table would cost more than it saves. */
CAMLprim value ppst_mont_pow(value vk, value vone, value vx, value ve)
{
  CAMLparam4(vk, vone, vx, ve);
  CAMLlocal1(vr);
  mlsize_t w = kernel_width(vk);
  uintnat nbits = nat_bits(ve);
  const limb *n, *x, *odd[TABLE];
  limb *scratch, *acc, *tmp, *swap, ninv;
  long i, j, b;
  int k;
  check_width(vone, w);
  check_width(vx, w);
  vr = caml_alloc_string(w * LIMB_BYTES);
  if (nbits == 0) {
    memcpy(Bytes_val(vr), Bytes_val(vone), w * LIMB_BYTES);
    CAMLreturn(vr);
  }
  /* TABLE - 1 odd powers, x^2, and two accumulators */
  scratch = malloc((TABLE + 2) * w * LIMB_BYTES);
  if (scratch == NULL) caml_raise_out_of_memory();
  n = (const limb *) Bytes_val(vk);
  ninv = n[w];
  x = (const limb *) Bytes_val(vx);
  acc = scratch + TABLE * w;
  tmp = acc + w;
/* acc = acc * y, through the spare buffer tmp */
#define ACC_TIMES(y)                            \
  do {                                          \
    mont_mul(tmp, acc, (y), n, ninv, w);        \
    swap = acc; acc = tmp; tmp = swap;          \
  } while (0)
  if (nbits <= WINDOW) {
    memcpy(acc, x, w * LIMB_BYTES);
    for (i = (long) nbits - 2; i >= 0; i--) {
      ACC_TIMES(acc);
      if (nat_bit(ve, i)) ACC_TIMES(x);
    }
  } else {
    limb *x2 = scratch + (TABLE - 1) * w;
    mont_mul(x2, x, x, n, ninv, w);
    odd[0] = x;
    for (k = 1; k < TABLE; k++) {
      limb *entry = scratch + (k - 1) * w;
      mont_mul(entry, odd[k - 1], x2, n, ninv, w);
      odd[k] = entry;
    }
    /* Scan from the top bit; each window [i .. j] is the widest that
     * fits and ends on a set bit, so its value is odd and in the table.
     * The first window (the top bit is set) seeds the accumulator. */
    i = (long) nbits - 1;
    while (i >= 0) {
      if (!nat_bit(ve, i)) {
        ACC_TIMES(acc);
        i--;
        continue;
      }
      j = i - WINDOW + 1 > 0 ? i - WINDOW + 1 : 0;
      while (!nat_bit(ve, j)) j++;
      k = 0;
      for (b = i; b >= j; b--) k = (k << 1) | nat_bit(ve, b);
      if (i == (long) nbits - 1) {
        memcpy(acc, odd[k >> 1], w * LIMB_BYTES);
      } else {
        for (b = i; b >= j; b--) ACC_TIMES(acc);
        ACC_TIMES(odd[k >> 1]);
      }
      i = j - 1;
    }
  }
#undef ACC_TIMES
  memcpy(Bytes_val(vr), acc, w * LIMB_BYTES);
  free(scratch);
  CAMLreturn(vr);
}
