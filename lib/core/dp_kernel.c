/* Banded multi-target sweep of the backward first-passage DP
   (Precompute.caching_columns_batch).

   One call advances every still-active target by one step:

     u_t(x) <- sum_j rows[x*w + j] * masked_t[slot[x] + j]

   The row matrix is the dense Markov kernel clipped to the window and
   zero-padded to a uniform width w (Markov.Dense); padding multiplies
   against in-window entries but adds exact +0.0 into a non-negative
   accumulator, so it cannot change the result.  Targets are swept in
   the inner loop so each kernel row is loaded once per step and served
   to all targets out of L1 — the row matrix is the only large operand.

   Per-target arithmetic is independent of which other targets are in
   the batch and of the order they appear in `active`, which is what
   makes batch-of-n bit-identical to n separate single-target runs (and
   the surface build bit-identical for any SSJ_JOBS chunking).

   The dot product has one reduction order, fixed by this source:
   sixteen accumulators s0..s15 take s_i += a[j+i] * b[j+i] over the
   16-wide blocks, a fixed pairwise tree adds them up, and the w mod 16
   tail products follow one at a time.  The library builds with
   -ffp-contract=off, so no multiply and add is fused: a vectorised
   copy does each lane's IEEE multiply and add exactly as the plain
   loop does, and every copy returns the same bits. */

#include <caml/mlvalues.h>

/* GCC emits an AVX2 copy of the same body next to the plain one and
   picks between them at load time; SSJ_NO_AVX2 keeps the plain one. */
#if defined(__x86_64__) && defined(__GNUC__) && !defined(__clang__) \
    && !defined(SSJ_NO_AVX2)
#define SSJ_CLONES __attribute__((target_clones("avx2", "default")))
#else
#define SSJ_CLONES
#endif

SSJ_CLONES
static double dot(const double *a, const double *b, long w)
{
  double s0 = 0.0, s1 = 0.0, s2 = 0.0, s3 = 0.0, s4 = 0.0, s5 = 0.0,
         s6 = 0.0, s7 = 0.0, s8 = 0.0, s9 = 0.0, s10 = 0.0, s11 = 0.0,
         s12 = 0.0, s13 = 0.0, s14 = 0.0, s15 = 0.0;
  long j = 0;
  for (; j + 16 <= w; j += 16) {
    s0 += a[j] * b[j];           s1 += a[j + 1] * b[j + 1];
    s2 += a[j + 2] * b[j + 2];   s3 += a[j + 3] * b[j + 3];
    s4 += a[j + 4] * b[j + 4];   s5 += a[j + 5] * b[j + 5];
    s6 += a[j + 6] * b[j + 6];   s7 += a[j + 7] * b[j + 7];
    s8 += a[j + 8] * b[j + 8];   s9 += a[j + 9] * b[j + 9];
    s10 += a[j + 10] * b[j + 10]; s11 += a[j + 11] * b[j + 11];
    s12 += a[j + 12] * b[j + 12]; s13 += a[j + 13] * b[j + 13];
    s14 += a[j + 14] * b[j + 14]; s15 += a[j + 15] * b[j + 15];
  }
  double s = (((s0 + s1) + (s2 + s3)) + ((s4 + s5) + (s6 + s7)))
             + (((s8 + s9) + (s10 + s11)) + ((s12 + s13) + (s14 + s15)));
  for (; j < w; j++) s += a[j] * b[j];
  return s;
}

CAMLprim value ssj_dp_sweep_native(value vrows, value vw, value vn, value vslot,
                                   value vmasked, value vu, value vactive,
                                   value vnact)
{
  const double *rows = (const double *)vrows;
  const double *masked = (const double *)vmasked;
  double *u = (double *)vu;
  long w = Long_val(vw);
  long n = Long_val(vn);
  long nact = Long_val(vnact);
  for (long x = 0; x < n; x++) {
    const double *row = rows + x * w;
    long base = Long_val(Field(vslot, x));
    for (long a = 0; a < nact; a++) {
      long t = Long_val(Field(vactive, a));
      u[t * n + x] = dot(row, masked + t * n + base, w);
    }
  }
  return Val_unit;
}

CAMLprim value ssj_dp_sweep_bytecode(value *argv, int argn)
{
  (void)argn;
  return ssj_dp_sweep_native(argv[0], argv[1], argv[2], argv[3], argv[4],
                             argv[5], argv[6], argv[7]);
}
