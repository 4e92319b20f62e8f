/* SHA-256 block compression for Sha256 — the "hash unit" of the modelled
 * secure processor. One entry point folds consecutive 64-byte blocks of
 * one message into its chaining state, on one of two backends selected
 * once at startup:
 *
 *   - SHA-NI: the x86 SHA extensions (sha256rnds2/sha256msg1/sha256msg2),
 *     when CPUID leaf 7 reports them. This is the same silicon a real
 *     memory-encryption engine would drive.
 *   - A portable scalar C core, used everywhere else.
 *
 * Both compute exactly FIPS 180-4; the OCaml side additionally keeps a
 * from-scratch OCaml compression as the executable specification, and the
 * test suite and the cpu-features self-test cross-check the active backend
 * against it.
 *
 * Contract with the OCaml side: the chaining state is an 8-element OCaml
 * int array holding the 32-bit words (immediates only, so plain Field
 * stores are safe), the data is an OCaml Bytes value, and calls never
 * allocate on the OCaml heap ([@@noalloc]).
 */

#include <stdint.h>
#include <stddef.h>

#include <caml/mlvalues.h>

static const uint32_t K[64] = {
  0x428a2f98u, 0x71374491u, 0xb5c0fbcfu, 0xe9b5dba5u,
  0x3956c25bu, 0x59f111f1u, 0x923f82a4u, 0xab1c5ed5u,
  0xd807aa98u, 0x12835b01u, 0x243185beu, 0x550c7dc3u,
  0x72be5d74u, 0x80deb1feu, 0x9bdc06a7u, 0xc19bf174u,
  0xe49b69c1u, 0xefbe4786u, 0x0fc19dc6u, 0x240ca1ccu,
  0x2de92c6fu, 0x4a7484aau, 0x5cb0a9dcu, 0x76f988dau,
  0x983e5152u, 0xa831c66du, 0xb00327c8u, 0xbf597fc7u,
  0xc6e00bf3u, 0xd5a79147u, 0x06ca6351u, 0x14292967u,
  0x27b70a85u, 0x2e1b2138u, 0x4d2c6dfcu, 0x53380d13u,
  0x650a7354u, 0x766a0abbu, 0x81c2c92eu, 0x92722c85u,
  0xa2bfe8a1u, 0xa81a664bu, 0xc24b8b70u, 0xc76c51a3u,
  0xd192e819u, 0xd6990624u, 0xf40e3585u, 0x106aa070u,
  0x19a4c116u, 0x1e376c08u, 0x2748774cu, 0x34b0bcb5u,
  0x391c0cb3u, 0x4ed8aa4au, 0x5b9cca4fu, 0x682e6ff3u,
  0x748f82eeu, 0x78a5636fu, 0x84c87814u, 0x8cc70208u,
  0x90befffau, 0xa4506cebu, 0xbef9a3f7u, 0xc67178f2u,
};

/* ------------------------------------------------------------------ */
/* Portable scalar core                                               */
/* ------------------------------------------------------------------ */

static inline uint32_t rotr32(uint32_t x, int n)
{
  return (x >> n) | (x << (32 - n));
}

static void compress_scalar(uint32_t state[8], const unsigned char *p,
                            long nblocks)
{
  uint32_t w[64];
  while (nblocks-- > 0) {
    for (int t = 0; t < 16; t++) {
      w[t] = ((uint32_t)p[4 * t] << 24) | ((uint32_t)p[4 * t + 1] << 16) |
             ((uint32_t)p[4 * t + 2] << 8) | (uint32_t)p[4 * t + 3];
    }
    for (int t = 16; t < 64; t++) {
      uint32_t s0 =
          rotr32(w[t - 15], 7) ^ rotr32(w[t - 15], 18) ^ (w[t - 15] >> 3);
      uint32_t s1 =
          rotr32(w[t - 2], 17) ^ rotr32(w[t - 2], 19) ^ (w[t - 2] >> 10);
      w[t] = w[t - 16] + s0 + w[t - 7] + s1;
    }
    uint32_t a = state[0], b = state[1], c = state[2], d = state[3];
    uint32_t e = state[4], f = state[5], g = state[6], h = state[7];
    for (int t = 0; t < 64; t++) {
      uint32_t t1 = h + (rotr32(e, 6) ^ rotr32(e, 11) ^ rotr32(e, 25)) +
                    ((e & f) ^ (~e & g)) + K[t] + w[t];
      uint32_t t2 = (rotr32(a, 2) ^ rotr32(a, 13) ^ rotr32(a, 22)) +
                    ((a & b) ^ (a & c) ^ (b & c));
      h = g; g = f; f = e; e = d + t1;
      d = c; c = b; b = a; a = t1 + t2;
    }
    state[0] += a; state[1] += b; state[2] += c; state[3] += d;
    state[4] += e; state[5] += f; state[6] += g; state[7] += h;
    p += 64;
  }
}

/* ------------------------------------------------------------------ */
/* SHA-NI core (x86-64 with the SHA extensions)                       */
/* ------------------------------------------------------------------ */

#if defined(__x86_64__) && defined(__GNUC__)
#define FIDELIUS_SHANI_POSSIBLE 1

#include <cpuid.h>
#include <immintrin.h>

static int shani_available(void)
{
  unsigned int eax, ebx, ecx, edx;
  if (!__get_cpuid_count(7, 0, &eax, &ebx, &ecx, &edx)) return 0;
  if (!((ebx >> 29) & 1)) return 0; /* SHA extensions */
  if (!__get_cpuid(1, &eax, &ebx, &ecx, &edx)) return 0;
  return (ecx >> 19) & 1; /* SSE4.1 (blend); implies SSSE3 */
}

/* W[g] = msg2(msg1(W[g-4], W[g-3]) + alignr(W[g-1], W[g-2], 4), W[g-1]),
 * the standard four-words-at-a-time schedule recurrence. */
#define NEXT_W(W0, W1, W2, W3)                                              \
  _mm_sha256msg2_epu32(                                                     \
      _mm_add_epi32(_mm_sha256msg1_epu32(W0, W1),                           \
                    _mm_alignr_epi8(W3, W2, 4)),                            \
      W3)

/* Four rounds: feed W+K to the two-rounds-at-a-time instruction twice. */
#define QROUNDS(g, W)                                                       \
  do {                                                                      \
    __m128i msg_ = _mm_add_epi32(                                           \
        W, _mm_loadu_si128((const __m128i *)&K[4 * (g)]));                  \
    state1 = _mm_sha256rnds2_epu32(state1, state0, msg_);                   \
    msg_ = _mm_shuffle_epi32(msg_, 0x0E);                                   \
    state0 = _mm_sha256rnds2_epu32(state0, state1, msg_);                   \
  } while (0)

__attribute__((target("sha,sse4.1,ssse3")))
static void compress_shani(uint32_t state[8], const unsigned char *p,
                           long nblocks)
{
  const __m128i bswap =
      _mm_set_epi64x(0x0c0d0e0f08090a0bLL, 0x0405060700010203LL);

  /* Repack {a..h} into the ABEF/CDGH register layout sha256rnds2 wants. */
  __m128i tmp = _mm_loadu_si128((const __m128i *)&state[0]);
  __m128i state1 = _mm_loadu_si128((const __m128i *)&state[4]);
  tmp = _mm_shuffle_epi32(tmp, 0xB1);               /* CDAB */
  state1 = _mm_shuffle_epi32(state1, 0x1B);         /* EFGH */
  __m128i state0 = _mm_alignr_epi8(tmp, state1, 8); /* ABEF */
  state1 = _mm_blend_epi16(state1, tmp, 0xF0);      /* CDGH */

  while (nblocks-- > 0) {
    const __m128i abef_save = state0;
    const __m128i cdgh_save = state1;

    __m128i w0 = _mm_shuffle_epi8(_mm_loadu_si128((const __m128i *)(p + 0)),
                                  bswap);
    __m128i w1 = _mm_shuffle_epi8(_mm_loadu_si128((const __m128i *)(p + 16)),
                                  bswap);
    __m128i w2 = _mm_shuffle_epi8(_mm_loadu_si128((const __m128i *)(p + 32)),
                                  bswap);
    __m128i w3 = _mm_shuffle_epi8(_mm_loadu_si128((const __m128i *)(p + 48)),
                                  bswap);

    QROUNDS(0, w0);
    QROUNDS(1, w1);
    QROUNDS(2, w2);
    QROUNDS(3, w3);
    w0 = NEXT_W(w0, w1, w2, w3); QROUNDS(4, w0);
    w1 = NEXT_W(w1, w2, w3, w0); QROUNDS(5, w1);
    w2 = NEXT_W(w2, w3, w0, w1); QROUNDS(6, w2);
    w3 = NEXT_W(w3, w0, w1, w2); QROUNDS(7, w3);
    w0 = NEXT_W(w0, w1, w2, w3); QROUNDS(8, w0);
    w1 = NEXT_W(w1, w2, w3, w0); QROUNDS(9, w1);
    w2 = NEXT_W(w2, w3, w0, w1); QROUNDS(10, w2);
    w3 = NEXT_W(w3, w0, w1, w2); QROUNDS(11, w3);
    w0 = NEXT_W(w0, w1, w2, w3); QROUNDS(12, w0);
    w1 = NEXT_W(w1, w2, w3, w0); QROUNDS(13, w1);
    w2 = NEXT_W(w2, w3, w0, w1); QROUNDS(14, w2);
    w3 = NEXT_W(w3, w0, w1, w2); QROUNDS(15, w3);

    state0 = _mm_add_epi32(state0, abef_save);
    state1 = _mm_add_epi32(state1, cdgh_save);
    p += 64;
  }

  /* Undo the register layout: ABEF/CDGH back to {a..h}. */
  tmp = _mm_shuffle_epi32(state0, 0x1B);        /* FEBA */
  state1 = _mm_shuffle_epi32(state1, 0xB1);     /* DCHG */
  state0 = _mm_blend_epi16(tmp, state1, 0xF0);  /* DCBA */
  state1 = _mm_alignr_epi8(state1, tmp, 8);     /* HGFE */
  _mm_storeu_si128((__m128i *)&state[0], state0);
  _mm_storeu_si128((__m128i *)&state[4], state1);
}

#endif /* __x86_64__ && __GNUC__ */

/* ------------------------------------------------------------------ */
/* Dispatch + OCaml entry points                                      */
/* ------------------------------------------------------------------ */

/* 0 = undetected, 1 = SHA-NI, 2 = scalar C. */
static int active_backend = 0;

static int detect_backend(void)
{
  if (active_backend == 0) {
#ifdef FIDELIUS_SHANI_POSSIBLE
    active_backend = shani_available() ? 1 : 2;
#else
    active_backend = 2;
#endif
  }
  return active_backend;
}

CAMLprim value fidelius_sha256_backend(value unit)
{
  (void)unit;
  return Val_long(detect_backend());
}

CAMLprim value fidelius_sha256_compress_many(value vh, value vbuf, value voff,
                                             value vnblocks)
{
  uint32_t state[8];
  const unsigned char *p =
      (const unsigned char *)Bytes_val(vbuf) + Long_val(voff);
  long nblocks = Long_val(vnblocks);

  for (int i = 0; i < 8; i++) state[i] = (uint32_t)Long_val(Field(vh, i));

#ifdef FIDELIUS_SHANI_POSSIBLE
  if (detect_backend() == 1)
    compress_shani(state, p, nblocks);
  else
#endif
    compress_scalar(state, p, nblocks);

  /* Immediates only — no write barrier needed. */
  for (int i = 0; i < 8; i++) Field(vh, i) = Val_long(state[i]);
  return Val_unit;
}
