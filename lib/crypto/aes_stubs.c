/* AES-128 bulk cores for Aes/Modes — the silicon of the modelled SME/SEV
 * memory-encryption engine. Three backends, selected once at startup:
 *
 *   - VAES: 256-bit aesenc/aesdec (VAES + AVX2), eight blocks per round
 *     across four ymm registers.
 *   - AES-NI: 128-bit aesenc/aesdec pipelined eight independent blocks
 *     per round so the ~4-cycle instruction latency is hidden.
 *   - A portable T-table C core, used everywhere else.
 *
 * All three compute exactly FIPS-197; the OCaml side keeps its own T-table
 * implementation as the executable specification and the test suite
 * cross-checks every backend against it.
 *
 * Contract with the OCaml side: the key schedule is a 352-byte OCaml Bytes
 * value ("rk") laid out as
 *
 *   bytes   0..175  encryption round keys w0..w10, FIPS byte order
 *   bytes 176..351  decryption round keys in application order — round r
 *                   is w(10-r), with InvMixColumns (aesimc) pre-applied to
 *                   rounds 1..9 (the equivalent inverse cipher)
 *
 * which is simultaneously what aesenc/aesdec load and what the big-endian
 * word loads of the portable core expect, and matches the OCaml ek/dk
 * arrays byte for byte. Entry points never allocate on the OCaml heap
 * ([@@noalloc]) and trust the caller for bounds (validated OCaml-side).
 *
 * Span-granular XEX is the hot entry point: one call per 4 KiB page that
 * generates the stride-advancing tweak blocks (tweak0 + i*tweak_step ||
 * 0xF1DE11F5), encrypts them into masks, whitens, en/decrypts and
 * re-whitens — all in-register for the SIMD tiers.
 */

#include <stdint.h>
#include <stddef.h>
#include <string.h>

#include <caml/mlvalues.h>

/* Tweak-block low quadword, shared with Modes.set_tweak_block. */
#define XEX_TWEAK_TAG 0xF1DE11F5ULL

enum {
  BK_UNDETECTED = 0,
  BK_VAES = 1,
  BK_AESNI = 2,
  BK_PORTABLE = 3,
};

/* CPU feature bitmask reported to OCaml (Aes.cpu_features). */
#define F_AES    (1 << 0)
#define F_SSSE3  (1 << 1)
#define F_SSE41  (1 << 2)
#define F_AVX2   (1 << 3)
#define F_VAES   (1 << 4)
#define F_SHA    (1 << 5)
#define F_YMM_OS (1 << 6)

static inline uint32_t load_be32(const uint8_t *p)
{
  return ((uint32_t)p[0] << 24) | ((uint32_t)p[1] << 16) |
         ((uint32_t)p[2] << 8) | (uint32_t)p[3];
}

static inline void store_be32(uint8_t *p, uint32_t v)
{
  p[0] = (uint8_t)(v >> 24);
  p[1] = (uint8_t)(v >> 16);
  p[2] = (uint8_t)(v >> 8);
  p[3] = (uint8_t)v;
}

static inline void store_be64(uint8_t *p, uint64_t v)
{
  store_be32(p, (uint32_t)(v >> 32));
  store_be32(p + 4, (uint32_t)v);
}

/* ------------------------------------------------------------------ */
/* Portable T-table core (and the shared C key expansion)             */
/* ------------------------------------------------------------------ */

static const uint8_t sbox[256] = {
  0x63, 0x7c, 0x77, 0x7b, 0xf2, 0x6b, 0x6f, 0xc5, 0x30, 0x01, 0x67, 0x2b,
  0xfe, 0xd7, 0xab, 0x76, 0xca, 0x82, 0xc9, 0x7d, 0xfa, 0x59, 0x47, 0xf0,
  0xad, 0xd4, 0xa2, 0xaf, 0x9c, 0xa4, 0x72, 0xc0, 0xb7, 0xfd, 0x93, 0x26,
  0x36, 0x3f, 0xf7, 0xcc, 0x34, 0xa5, 0xe5, 0xf1, 0x71, 0xd8, 0x31, 0x15,
  0x04, 0xc7, 0x23, 0xc3, 0x18, 0x96, 0x05, 0x9a, 0x07, 0x12, 0x80, 0xe2,
  0xeb, 0x27, 0xb2, 0x75, 0x09, 0x83, 0x2c, 0x1a, 0x1b, 0x6e, 0x5a, 0xa0,
  0x52, 0x3b, 0xd6, 0xb3, 0x29, 0xe3, 0x2f, 0x84, 0x53, 0xd1, 0x00, 0xed,
  0x20, 0xfc, 0xb1, 0x5b, 0x6a, 0xcb, 0xbe, 0x39, 0x4a, 0x4c, 0x58, 0xcf,
  0xd0, 0xef, 0xaa, 0xfb, 0x43, 0x4d, 0x33, 0x85, 0x45, 0xf9, 0x02, 0x7f,
  0x50, 0x3c, 0x9f, 0xa8, 0x51, 0xa3, 0x40, 0x8f, 0x92, 0x9d, 0x38, 0xf5,
  0xbc, 0xb6, 0xda, 0x21, 0x10, 0xff, 0xf3, 0xd2, 0xcd, 0x0c, 0x13, 0xec,
  0x5f, 0x97, 0x44, 0x17, 0xc4, 0xa7, 0x7e, 0x3d, 0x64, 0x5d, 0x19, 0x73,
  0x60, 0x81, 0x4f, 0xdc, 0x22, 0x2a, 0x90, 0x88, 0x46, 0xee, 0xb8, 0x14,
  0xde, 0x5e, 0x0b, 0xdb, 0xe0, 0x32, 0x3a, 0x0a, 0x49, 0x06, 0x24, 0x5c,
  0xc2, 0xd3, 0xac, 0x62, 0x91, 0x95, 0xe4, 0x79, 0xe7, 0xc8, 0x37, 0x6d,
  0x8d, 0xd5, 0x4e, 0xa9, 0x6c, 0x56, 0xf4, 0xea, 0x65, 0x7a, 0xae, 0x08,
  0xba, 0x78, 0x25, 0x2e, 0x1c, 0xa6, 0xb4, 0xc6, 0xe8, 0xdd, 0x74, 0x1f,
  0x4b, 0xbd, 0x8b, 0x8a, 0x70, 0x3e, 0xb5, 0x66, 0x48, 0x03, 0xf6, 0x0e,
  0x61, 0x35, 0x57, 0xb9, 0x86, 0xc1, 0x1d, 0x9e, 0xe1, 0xf8, 0x98, 0x11,
  0x69, 0xd9, 0x8e, 0x94, 0x9b, 0x1e, 0x87, 0xe9, 0xce, 0x55, 0x28, 0xdf,
  0x8c, 0xa1, 0x89, 0x0d, 0xbf, 0xe6, 0x42, 0x68, 0x41, 0x99, 0x2d, 0x0f,
  0xb0, 0x54, 0xbb, 0x16,
};

static const uint8_t rcon[10] = {
  0x01, 0x02, 0x04, 0x08, 0x10, 0x20, 0x40, 0x80, 0x1b, 0x36,
};

static uint8_t inv_sbox[256];
static uint32_t Te0[256], Te1[256], Te2[256], Te3[256];
static uint32_t Td0[256], Td1[256], Td2[256], Td3[256];
static int tables_ready = 0;

static inline uint8_t xtime(uint8_t b)
{
  return (uint8_t)((b << 1) ^ ((b & 0x80) ? 0x1b : 0x00));
}

static uint8_t gmul(uint8_t a, uint8_t b)
{
  uint8_t acc = 0;
  while (b) {
    if (b & 1) acc ^= a;
    a = xtime(a);
    b >>= 1;
  }
  return acc;
}

static inline uint32_t ror8(uint32_t w)
{
  return (w >> 8) | (w << 24);
}

static void init_tables(void)
{
  if (tables_ready) return;
  for (int x = 0; x < 256; x++) inv_sbox[sbox[x]] = (uint8_t)x;
  for (int x = 0; x < 256; x++) {
    uint8_t s = sbox[x];
    uint8_t s2 = xtime(s);
    uint8_t s3 = (uint8_t)(s2 ^ s);
    uint32_t e = ((uint32_t)s2 << 24) | ((uint32_t)s << 16) |
                 ((uint32_t)s << 8) | (uint32_t)s3;
    Te0[x] = e;
    Te1[x] = ror8(e);
    Te2[x] = ror8(ror8(e));
    Te3[x] = ror8(ror8(ror8(e)));
    uint8_t is = inv_sbox[x];
    uint32_t d = ((uint32_t)gmul(is, 14) << 24) | ((uint32_t)gmul(is, 9) << 16) |
                 ((uint32_t)gmul(is, 13) << 8) | (uint32_t)gmul(is, 11);
    Td0[x] = d;
    Td1[x] = ror8(d);
    Td2[x] = ror8(ror8(d));
    Td3[x] = ror8(ror8(ror8(d)));
  }
  tables_ready = 1;
}

static inline uint32_t inv_mix_word(uint32_t w)
{
  uint8_t b0 = (uint8_t)(w >> 24), b1 = (uint8_t)(w >> 16);
  uint8_t b2 = (uint8_t)(w >> 8), b3 = (uint8_t)w;
  return ((uint32_t)(gmul(b0, 14) ^ gmul(b1, 11) ^ gmul(b2, 13) ^ gmul(b3, 9)) << 24)
       | ((uint32_t)(gmul(b0, 9) ^ gmul(b1, 14) ^ gmul(b2, 11) ^ gmul(b3, 13)) << 16)
       | ((uint32_t)(gmul(b0, 13) ^ gmul(b1, 9) ^ gmul(b2, 14) ^ gmul(b3, 11)) << 8)
       | (uint32_t)(gmul(b0, 11) ^ gmul(b1, 13) ^ gmul(b2, 9) ^ gmul(b3, 14));
}

static inline uint32_t sub_word(uint32_t w)
{
  return ((uint32_t)sbox[(w >> 24) & 0xff] << 24) |
         ((uint32_t)sbox[(w >> 16) & 0xff] << 16) |
         ((uint32_t)sbox[(w >> 8) & 0xff] << 8) |
         (uint32_t)sbox[w & 0xff];
}

static inline uint32_t rot_word(uint32_t w)
{
  return (w << 8) | (w >> 24);
}

static void portable_expand(const uint8_t *raw, uint8_t *rk)
{
  uint32_t w[44], dw[44];
  init_tables();
  for (int i = 0; i < 4; i++) w[i] = load_be32(raw + 4 * i);
  for (int i = 4; i < 44; i++) {
    uint32_t t = w[i - 1];
    if ((i & 3) == 0)
      t = sub_word(rot_word(t)) ^ ((uint32_t)rcon[i / 4 - 1] << 24);
    w[i] = w[i - 4] ^ t;
  }
  for (int r = 0; r <= 10; r++)
    for (int c = 0; c < 4; c++) dw[4 * r + c] = w[4 * (10 - r) + c];
  for (int i = 4; i < 40; i++) dw[i] = inv_mix_word(dw[i]);
  for (int i = 0; i < 44; i++) {
    store_be32(rk + 4 * i, w[i]);
    store_be32(rk + 176 + 4 * i, dw[i]);
  }
}

static void portable_enc_block(const uint8_t *rk, const uint8_t *src,
                               uint8_t *dst)
{
  uint32_t s0 = load_be32(src) ^ load_be32(rk);
  uint32_t s1 = load_be32(src + 4) ^ load_be32(rk + 4);
  uint32_t s2 = load_be32(src + 8) ^ load_be32(rk + 8);
  uint32_t s3 = load_be32(src + 12) ^ load_be32(rk + 12);
  for (int r = 1; r <= 9; r++) {
    const uint8_t *k = rk + 16 * r;
    uint32_t t0 = Te0[s0 >> 24] ^ Te1[(s1 >> 16) & 0xff] ^
                  Te2[(s2 >> 8) & 0xff] ^ Te3[s3 & 0xff] ^ load_be32(k);
    uint32_t t1 = Te0[s1 >> 24] ^ Te1[(s2 >> 16) & 0xff] ^
                  Te2[(s3 >> 8) & 0xff] ^ Te3[s0 & 0xff] ^ load_be32(k + 4);
    uint32_t t2 = Te0[s2 >> 24] ^ Te1[(s3 >> 16) & 0xff] ^
                  Te2[(s0 >> 8) & 0xff] ^ Te3[s1 & 0xff] ^ load_be32(k + 8);
    uint32_t t3 = Te0[s3 >> 24] ^ Te1[(s0 >> 16) & 0xff] ^
                  Te2[(s1 >> 8) & 0xff] ^ Te3[s2 & 0xff] ^ load_be32(k + 12);
    s0 = t0; s1 = t1; s2 = t2; s3 = t3;
  }
  const uint8_t *k = rk + 160;
  store_be32(dst,
             (((uint32_t)sbox[s0 >> 24] << 24) |
              ((uint32_t)sbox[(s1 >> 16) & 0xff] << 16) |
              ((uint32_t)sbox[(s2 >> 8) & 0xff] << 8) |
              (uint32_t)sbox[s3 & 0xff]) ^ load_be32(k));
  store_be32(dst + 4,
             (((uint32_t)sbox[s1 >> 24] << 24) |
              ((uint32_t)sbox[(s2 >> 16) & 0xff] << 16) |
              ((uint32_t)sbox[(s3 >> 8) & 0xff] << 8) |
              (uint32_t)sbox[s0 & 0xff]) ^ load_be32(k + 4));
  store_be32(dst + 8,
             (((uint32_t)sbox[s2 >> 24] << 24) |
              ((uint32_t)sbox[(s3 >> 16) & 0xff] << 16) |
              ((uint32_t)sbox[(s0 >> 8) & 0xff] << 8) |
              (uint32_t)sbox[s1 & 0xff]) ^ load_be32(k + 8));
  store_be32(dst + 12,
             (((uint32_t)sbox[s3 >> 24] << 24) |
              ((uint32_t)sbox[(s0 >> 16) & 0xff] << 16) |
              ((uint32_t)sbox[(s1 >> 8) & 0xff] << 8) |
              (uint32_t)sbox[s2 & 0xff]) ^ load_be32(k + 12));
}

static void portable_dec_block(const uint8_t *rk, const uint8_t *src,
                               uint8_t *dst)
{
  const uint8_t *dk = rk + 176;
  uint32_t s0 = load_be32(src) ^ load_be32(dk);
  uint32_t s1 = load_be32(src + 4) ^ load_be32(dk + 4);
  uint32_t s2 = load_be32(src + 8) ^ load_be32(dk + 8);
  uint32_t s3 = load_be32(src + 12) ^ load_be32(dk + 12);
  for (int r = 1; r <= 9; r++) {
    const uint8_t *k = dk + 16 * r;
    uint32_t t0 = Td0[s0 >> 24] ^ Td1[(s3 >> 16) & 0xff] ^
                  Td2[(s2 >> 8) & 0xff] ^ Td3[s1 & 0xff] ^ load_be32(k);
    uint32_t t1 = Td0[s1 >> 24] ^ Td1[(s0 >> 16) & 0xff] ^
                  Td2[(s3 >> 8) & 0xff] ^ Td3[s2 & 0xff] ^ load_be32(k + 4);
    uint32_t t2 = Td0[s2 >> 24] ^ Td1[(s1 >> 16) & 0xff] ^
                  Td2[(s0 >> 8) & 0xff] ^ Td3[s3 & 0xff] ^ load_be32(k + 8);
    uint32_t t3 = Td0[s3 >> 24] ^ Td1[(s2 >> 16) & 0xff] ^
                  Td2[(s1 >> 8) & 0xff] ^ Td3[s0 & 0xff] ^ load_be32(k + 12);
    s0 = t0; s1 = t1; s2 = t2; s3 = t3;
  }
  const uint8_t *k = dk + 160;
  store_be32(dst,
             (((uint32_t)inv_sbox[s0 >> 24] << 24) |
              ((uint32_t)inv_sbox[(s3 >> 16) & 0xff] << 16) |
              ((uint32_t)inv_sbox[(s2 >> 8) & 0xff] << 8) |
              (uint32_t)inv_sbox[s1 & 0xff]) ^ load_be32(k));
  store_be32(dst + 4,
             (((uint32_t)inv_sbox[s1 >> 24] << 24) |
              ((uint32_t)inv_sbox[(s0 >> 16) & 0xff] << 16) |
              ((uint32_t)inv_sbox[(s3 >> 8) & 0xff] << 8) |
              (uint32_t)inv_sbox[s2 & 0xff]) ^ load_be32(k + 4));
  store_be32(dst + 8,
             (((uint32_t)inv_sbox[s2 >> 24] << 24) |
              ((uint32_t)inv_sbox[(s1 >> 16) & 0xff] << 16) |
              ((uint32_t)inv_sbox[(s0 >> 8) & 0xff] << 8) |
              (uint32_t)inv_sbox[s3 & 0xff]) ^ load_be32(k + 8));
  store_be32(dst + 12,
             (((uint32_t)inv_sbox[s3 >> 24] << 24) |
              ((uint32_t)inv_sbox[(s2 >> 16) & 0xff] << 16) |
              ((uint32_t)inv_sbox[(s1 >> 8) & 0xff] << 8) |
              (uint32_t)inv_sbox[s0 & 0xff]) ^ load_be32(k + 12));
}

/* The block functions load the whole source block before storing, so exact
 * src == dst aliasing is safe throughout — matching the OCaml reference. */

static void portable_ecb(const uint8_t *rk, int enc, const uint8_t *src,
                         uint8_t *dst, long nblocks)
{
  for (long i = 0; i < nblocks; i++) {
    if (enc) portable_enc_block(rk, src + 16 * i, dst + 16 * i);
    else portable_dec_block(rk, src + 16 * i, dst + 16 * i);
  }
}

static void portable_ctr(const uint8_t *rk, uint64_t nonce,
                         const uint8_t *src, uint8_t *dst, long len)
{
  uint8_t ctr[16], ks[16];
  store_be64(ctr, nonce);
  long nblocks = (len + 15) / 16;
  for (long blk = 0; blk < nblocks; blk++) {
    store_be64(ctr + 8, (uint64_t)blk);
    portable_enc_block(rk, ctr, ks);
    long base = 16 * blk;
    long n = len - base < 16 ? len - base : 16;
    for (long j = 0; j < n; j++) dst[base + j] = src[base + j] ^ ks[j];
  }
}

static void portable_xex(const uint8_t *rk, int enc, uint64_t t0,
                         uint64_t step, const uint8_t *src, uint8_t *dst,
                         long nblocks)
{
  uint8_t tb[16], mask[16], tmp[16];
  store_be64(tb + 8, XEX_TWEAK_TAG);
  for (long blk = 0; blk < nblocks; blk++) {
    store_be64(tb, t0 + (uint64_t)blk * step);
    portable_enc_block(rk, tb, mask);
    const uint8_t *s = src + 16 * blk;
    for (int j = 0; j < 16; j++) tmp[j] = s[j] ^ mask[j];
    if (enc) portable_enc_block(rk, tmp, tmp);
    else portable_dec_block(rk, tmp, tmp);
    uint8_t *d = dst + 16 * blk;
    for (int j = 0; j < 16; j++) d[j] = tmp[j] ^ mask[j];
  }
}

/* ------------------------------------------------------------------ */
/* AES-NI core (x86-64, 128-bit, pipelined 8 blocks per round)        */
/* ------------------------------------------------------------------ */

#if defined(__x86_64__) && defined(__GNUC__)
#define FIDELIUS_AESNI_POSSIBLE 1

#include <cpuid.h>
#include <immintrin.h>

/* Apply one round instruction to all eight in-flight blocks. The eight
 * chains are independent, so the CPU overlaps the aesenc latencies. */
#define B8(op, k)                                                           \
  do {                                                                      \
    b0 = op(b0, k); b1 = op(b1, k); b2 = op(b2, k); b3 = op(b3, k);         \
    b4 = op(b4, k); b5 = op(b5, k); b6 = op(b6, k); b7 = op(b7, k);         \
  } while (0)

#define M8(op, k)                                                           \
  do {                                                                      \
    m0 = op(m0, k); m1 = op(m1, k); m2 = op(m2, k); m3 = op(m3, k);         \
    m4 = op(m4, k); m5 = op(m5, k); m6 = op(m6, k); m7 = op(m7, k);         \
  } while (0)

#define LOAD8(p)                                                            \
  do {                                                                      \
    b0 = _mm_loadu_si128((const __m128i *)((p) + 0));                       \
    b1 = _mm_loadu_si128((const __m128i *)((p) + 16));                      \
    b2 = _mm_loadu_si128((const __m128i *)((p) + 32));                      \
    b3 = _mm_loadu_si128((const __m128i *)((p) + 48));                      \
    b4 = _mm_loadu_si128((const __m128i *)((p) + 64));                      \
    b5 = _mm_loadu_si128((const __m128i *)((p) + 80));                      \
    b6 = _mm_loadu_si128((const __m128i *)((p) + 96));                      \
    b7 = _mm_loadu_si128((const __m128i *)((p) + 112));                     \
  } while (0)

#define STORE8(p)                                                           \
  do {                                                                      \
    _mm_storeu_si128((__m128i *)((p) + 0), b0);                             \
    _mm_storeu_si128((__m128i *)((p) + 16), b1);                            \
    _mm_storeu_si128((__m128i *)((p) + 32), b2);                            \
    _mm_storeu_si128((__m128i *)((p) + 48), b3);                            \
    _mm_storeu_si128((__m128i *)((p) + 64), b4);                            \
    _mm_storeu_si128((__m128i *)((p) + 80), b5);                            \
    _mm_storeu_si128((__m128i *)((p) + 96), b6);                            \
    _mm_storeu_si128((__m128i *)((p) + 112), b7);                           \
  } while (0)

__attribute__((target("aes")))
static inline void aesni_load_keys(const uint8_t *sched, __m128i K[11])
{
  for (int i = 0; i < 11; i++)
    K[i] = _mm_loadu_si128((const __m128i *)(sched + 16 * i));
}

__attribute__((target("aes")))
static inline __m128i aesni_enc1(const __m128i K[11], __m128i b)
{
  b = _mm_xor_si128(b, K[0]);
  for (int r = 1; r <= 9; r++) b = _mm_aesenc_si128(b, K[r]);
  return _mm_aesenclast_si128(b, K[10]);
}

__attribute__((target("aes")))
static inline __m128i aesni_dec1(const __m128i K[11], __m128i b)
{
  b = _mm_xor_si128(b, K[0]);
  for (int r = 1; r <= 9; r++) b = _mm_aesdec_si128(b, K[r]);
  return _mm_aesdeclast_si128(b, K[10]);
}

__attribute__((target("aes")))
static void aesni_ecb(const uint8_t *rk, int enc, const uint8_t *src,
                      uint8_t *dst, long nblocks)
{
  __m128i K[11];
  aesni_load_keys(enc ? rk : rk + 176, K);
  long i = 0;
  for (; i + 8 <= nblocks; i += 8) {
    __m128i b0, b1, b2, b3, b4, b5, b6, b7;
    LOAD8(src + 16 * i);
    B8(_mm_xor_si128, K[0]);
    if (enc) {
      for (int r = 1; r <= 9; r++) B8(_mm_aesenc_si128, K[r]);
      B8(_mm_aesenclast_si128, K[10]);
    } else {
      for (int r = 1; r <= 9; r++) B8(_mm_aesdec_si128, K[r]);
      B8(_mm_aesdeclast_si128, K[10]);
    }
    STORE8(dst + 16 * i);
  }
  for (; i < nblocks; i++) {
    __m128i b = _mm_loadu_si128((const __m128i *)(src + 16 * i));
    b = enc ? aesni_enc1(K, b) : aesni_dec1(K, b);
    _mm_storeu_si128((__m128i *)(dst + 16 * i), b);
  }
}

__attribute__((target("aes")))
static void aesni_ctr(const uint8_t *rk, uint64_t nonce, uint64_t blk0,
                      const uint8_t *src, uint8_t *dst, long len)
{
  __m128i K[11];
  aesni_load_keys(rk, K);
  long nfull = len / 16;
  uint8_t cb[128];
  for (int j = 0; j < 8; j++) store_be64(cb + 16 * j, nonce);
  long i = 0;
  for (; i + 8 <= nfull; i += 8) {
    for (int j = 0; j < 8; j++)
      store_be64(cb + 16 * j + 8, blk0 + (uint64_t)(i + j));
    __m128i b0, b1, b2, b3, b4, b5, b6, b7;
    LOAD8(cb);
    B8(_mm_xor_si128, K[0]);
    for (int r = 1; r <= 9; r++) B8(_mm_aesenc_si128, K[r]);
    B8(_mm_aesenclast_si128, K[10]);
    const uint8_t *s = src + 16 * i;
    b0 = _mm_xor_si128(b0, _mm_loadu_si128((const __m128i *)(s + 0)));
    b1 = _mm_xor_si128(b1, _mm_loadu_si128((const __m128i *)(s + 16)));
    b2 = _mm_xor_si128(b2, _mm_loadu_si128((const __m128i *)(s + 32)));
    b3 = _mm_xor_si128(b3, _mm_loadu_si128((const __m128i *)(s + 48)));
    b4 = _mm_xor_si128(b4, _mm_loadu_si128((const __m128i *)(s + 64)));
    b5 = _mm_xor_si128(b5, _mm_loadu_si128((const __m128i *)(s + 80)));
    b6 = _mm_xor_si128(b6, _mm_loadu_si128((const __m128i *)(s + 96)));
    b7 = _mm_xor_si128(b7, _mm_loadu_si128((const __m128i *)(s + 112)));
    STORE8(dst + 16 * i);
  }
  for (; i < nfull; i++) {
    store_be64(cb + 8, blk0 + (uint64_t)i);
    __m128i ks = aesni_enc1(K, _mm_loadu_si128((const __m128i *)cb));
    __m128i b = _mm_loadu_si128((const __m128i *)(src + 16 * i));
    _mm_storeu_si128((__m128i *)(dst + 16 * i), _mm_xor_si128(b, ks));
  }
  long tail = len - 16 * nfull;
  if (tail > 0) {
    uint8_t ks[16];
    store_be64(cb + 8, blk0 + (uint64_t)nfull);
    _mm_storeu_si128((__m128i *)ks,
                     aesni_enc1(K, _mm_loadu_si128((const __m128i *)cb)));
    for (long j = 0; j < tail; j++)
      dst[16 * nfull + j] = src[16 * nfull + j] ^ ks[j];
  }
}

__attribute__((target("aes")))
static void aesni_xex(const uint8_t *rk, int enc, uint64_t t0, uint64_t step,
                      const uint8_t *src, uint8_t *dst, long nblocks)
{
  __m128i KE[11], KD[11];
  aesni_load_keys(rk, KE); /* masks always use the encryption schedule */
  const __m128i *KC = KE;
  if (!enc) {
    aesni_load_keys(rk + 176, KD);
    KC = KD;
  }
  uint8_t tb[128];
  for (int j = 0; j < 8; j++) store_be64(tb + 16 * j + 8, XEX_TWEAK_TAG);
  long i = 0;
  for (; i + 8 <= nblocks; i += 8) {
    for (int j = 0; j < 8; j++)
      store_be64(tb + 16 * j, t0 + (uint64_t)(i + j) * step);
    __m128i m0, m1, m2, m3, m4, m5, m6, m7;
    m0 = _mm_loadu_si128((const __m128i *)(tb + 0));
    m1 = _mm_loadu_si128((const __m128i *)(tb + 16));
    m2 = _mm_loadu_si128((const __m128i *)(tb + 32));
    m3 = _mm_loadu_si128((const __m128i *)(tb + 48));
    m4 = _mm_loadu_si128((const __m128i *)(tb + 64));
    m5 = _mm_loadu_si128((const __m128i *)(tb + 80));
    m6 = _mm_loadu_si128((const __m128i *)(tb + 96));
    m7 = _mm_loadu_si128((const __m128i *)(tb + 112));
    M8(_mm_xor_si128, KE[0]);
    for (int r = 1; r <= 9; r++) M8(_mm_aesenc_si128, KE[r]);
    M8(_mm_aesenclast_si128, KE[10]);
    __m128i b0, b1, b2, b3, b4, b5, b6, b7;
    LOAD8(src + 16 * i);
    /* Whiten and fold in the first round key in one pass. */
    b0 = _mm_xor_si128(b0, _mm_xor_si128(m0, KC[0]));
    b1 = _mm_xor_si128(b1, _mm_xor_si128(m1, KC[0]));
    b2 = _mm_xor_si128(b2, _mm_xor_si128(m2, KC[0]));
    b3 = _mm_xor_si128(b3, _mm_xor_si128(m3, KC[0]));
    b4 = _mm_xor_si128(b4, _mm_xor_si128(m4, KC[0]));
    b5 = _mm_xor_si128(b5, _mm_xor_si128(m5, KC[0]));
    b6 = _mm_xor_si128(b6, _mm_xor_si128(m6, KC[0]));
    b7 = _mm_xor_si128(b7, _mm_xor_si128(m7, KC[0]));
    if (enc) {
      for (int r = 1; r <= 9; r++) B8(_mm_aesenc_si128, KC[r]);
      B8(_mm_aesenclast_si128, KC[10]);
    } else {
      for (int r = 1; r <= 9; r++) B8(_mm_aesdec_si128, KC[r]);
      B8(_mm_aesdeclast_si128, KC[10]);
    }
    b0 = _mm_xor_si128(b0, m0); b1 = _mm_xor_si128(b1, m1);
    b2 = _mm_xor_si128(b2, m2); b3 = _mm_xor_si128(b3, m3);
    b4 = _mm_xor_si128(b4, m4); b5 = _mm_xor_si128(b5, m5);
    b6 = _mm_xor_si128(b6, m6); b7 = _mm_xor_si128(b7, m7);
    STORE8(dst + 16 * i);
  }
  for (; i < nblocks; i++) {
    store_be64(tb, t0 + (uint64_t)i * step);
    __m128i m = aesni_enc1(KE, _mm_loadu_si128((const __m128i *)tb));
    __m128i b = _mm_loadu_si128((const __m128i *)(src + 16 * i));
    b = _mm_xor_si128(b, m);
    b = enc ? aesni_enc1(KC, b) : aesni_dec1(KC, b);
    _mm_storeu_si128((__m128i *)(dst + 16 * i), _mm_xor_si128(b, m));
  }
}

/* aeskeygenassist-based expansion — the ISSUE-mandated hardware path for
 * key setup; produces byte-identical schedules to portable_expand. */
__attribute__((target("aes")))
static inline __m128i aesni_expand_step(__m128i key, __m128i gen)
{
  gen = _mm_shuffle_epi32(gen, 0xff);
  key = _mm_xor_si128(key, _mm_slli_si128(key, 4));
  key = _mm_xor_si128(key, _mm_slli_si128(key, 4));
  key = _mm_xor_si128(key, _mm_slli_si128(key, 4));
  return _mm_xor_si128(key, gen);
}

__attribute__((target("aes")))
static void aesni_expand(const uint8_t *raw, uint8_t *rk)
{
  __m128i w[11];
  w[0] = _mm_loadu_si128((const __m128i *)raw);
#define KEXP(i, rc) \
  w[i] = aesni_expand_step(w[i - 1], _mm_aeskeygenassist_si128(w[i - 1], rc))
  KEXP(1, 0x01); KEXP(2, 0x02); KEXP(3, 0x04); KEXP(4, 0x08);
  KEXP(5, 0x10); KEXP(6, 0x20); KEXP(7, 0x40); KEXP(8, 0x80);
  KEXP(9, 0x1b); KEXP(10, 0x36);
#undef KEXP
  for (int r = 0; r <= 10; r++) {
    _mm_storeu_si128((__m128i *)(rk + 16 * r), w[r]);
    __m128i d = w[10 - r];
    if (r >= 1 && r <= 9) d = _mm_aesimc_si128(d);
    _mm_storeu_si128((__m128i *)(rk + 176 + 16 * r), d);
  }
}

/* ---------------------------------------------------------------- */
/* VAES core (256-bit: four ymm registers carry 8 blocks per round) */
/* ---------------------------------------------------------------- */
#define FIDELIUS_VAES_POSSIBLE 1

#define Y4(op, k)                                                           \
  do {                                                                      \
    y0 = op(y0, k); y1 = op(y1, k); y2 = op(y2, k); y3 = op(y3, k);         \
  } while (0)

#define YM4(op, k)                                                          \
  do {                                                                      \
    n0 = op(n0, k); n1 = op(n1, k); n2 = op(n2, k); n3 = op(n3, k);         \
  } while (0)

#define YLOAD4(v0, v1, v2, v3, p)                                           \
  do {                                                                      \
    v0 = _mm256_loadu_si256((const __m256i *)((p) + 0));                    \
    v1 = _mm256_loadu_si256((const __m256i *)((p) + 32));                   \
    v2 = _mm256_loadu_si256((const __m256i *)((p) + 64));                   \
    v3 = _mm256_loadu_si256((const __m256i *)((p) + 96));                   \
  } while (0)

#define YSTORE4(p)                                                          \
  do {                                                                      \
    _mm256_storeu_si256((__m256i *)((p) + 0), y0);                          \
    _mm256_storeu_si256((__m256i *)((p) + 32), y1);                         \
    _mm256_storeu_si256((__m256i *)((p) + 64), y2);                         \
    _mm256_storeu_si256((__m256i *)((p) + 96), y3);                         \
  } while (0)

__attribute__((target("vaes,avx2,aes")))
static inline void vaes_load_keys(const uint8_t *sched, __m256i K[11])
{
  for (int i = 0; i < 11; i++)
    K[i] = _mm256_broadcastsi128_si256(
        _mm_loadu_si128((const __m128i *)(sched + 16 * i)));
}

__attribute__((target("vaes,avx2,aes")))
static void vaes_ecb(const uint8_t *rk, int enc, const uint8_t *src,
                     uint8_t *dst, long nblocks)
{
  __m256i K[11];
  vaes_load_keys(enc ? rk : rk + 176, K);
  long i = 0;
  for (; i + 8 <= nblocks; i += 8) {
    __m256i y0, y1, y2, y3;
    YLOAD4(y0, y1, y2, y3, src + 16 * i);
    Y4(_mm256_xor_si256, K[0]);
    if (enc) {
      for (int r = 1; r <= 9; r++) Y4(_mm256_aesenc_epi128, K[r]);
      Y4(_mm256_aesenclast_epi128, K[10]);
    } else {
      for (int r = 1; r <= 9; r++) Y4(_mm256_aesdec_epi128, K[r]);
      Y4(_mm256_aesdeclast_epi128, K[10]);
    }
    YSTORE4(dst + 16 * i);
  }
  if (i < nblocks) aesni_ecb(rk, enc, src + 16 * i, dst + 16 * i, nblocks - i);
}

__attribute__((target("vaes,avx2,aes")))
static void vaes_ctr(const uint8_t *rk, uint64_t nonce, const uint8_t *src,
                     uint8_t *dst, long len)
{
  __m256i K[11];
  vaes_load_keys(rk, K);
  long nfull = len / 16;
  uint8_t cb[128];
  for (int j = 0; j < 8; j++) store_be64(cb + 16 * j, nonce);
  long i = 0;
  for (; i + 8 <= nfull; i += 8) {
    for (int j = 0; j < 8; j++)
      store_be64(cb + 16 * j + 8, (uint64_t)(i + j));
    __m256i y0, y1, y2, y3;
    YLOAD4(y0, y1, y2, y3, cb);
    Y4(_mm256_xor_si256, K[0]);
    for (int r = 1; r <= 9; r++) Y4(_mm256_aesenc_epi128, K[r]);
    Y4(_mm256_aesenclast_epi128, K[10]);
    const uint8_t *s = src + 16 * i;
    y0 = _mm256_xor_si256(y0, _mm256_loadu_si256((const __m256i *)(s + 0)));
    y1 = _mm256_xor_si256(y1, _mm256_loadu_si256((const __m256i *)(s + 32)));
    y2 = _mm256_xor_si256(y2, _mm256_loadu_si256((const __m256i *)(s + 64)));
    y3 = _mm256_xor_si256(y3, _mm256_loadu_si256((const __m256i *)(s + 96)));
    YSTORE4(dst + 16 * i);
  }
  /* Full-block stragglers and the partial tail reuse the 128-bit core,
   * continuing the counter at block i. */
  if (16 * i < len)
    aesni_ctr(rk, nonce, (uint64_t)i, src + 16 * i, dst + 16 * i, len - 16 * i);
}

__attribute__((target("vaes,avx2,aes")))
static void vaes_xex(const uint8_t *rk, int enc, uint64_t t0, uint64_t step,
                     const uint8_t *src, uint8_t *dst, long nblocks)
{
  __m256i KE[11], KD[11];
  vaes_load_keys(rk, KE);
  const __m256i *KC = KE;
  if (!enc) {
    vaes_load_keys(rk + 176, KD);
    KC = KD;
  }
  uint8_t tb[128];
  for (int j = 0; j < 8; j++) store_be64(tb + 16 * j + 8, XEX_TWEAK_TAG);
  long i = 0;
  for (; i + 8 <= nblocks; i += 8) {
    for (int j = 0; j < 8; j++)
      store_be64(tb + 16 * j, t0 + (uint64_t)(i + j) * step);
    __m256i n0, n1, n2, n3;
    YLOAD4(n0, n1, n2, n3, tb);
    YM4(_mm256_xor_si256, KE[0]);
    for (int r = 1; r <= 9; r++) YM4(_mm256_aesenc_epi128, KE[r]);
    YM4(_mm256_aesenclast_epi128, KE[10]);
    __m256i y0, y1, y2, y3;
    YLOAD4(y0, y1, y2, y3, src + 16 * i);
    y0 = _mm256_xor_si256(y0, _mm256_xor_si256(n0, KC[0]));
    y1 = _mm256_xor_si256(y1, _mm256_xor_si256(n1, KC[0]));
    y2 = _mm256_xor_si256(y2, _mm256_xor_si256(n2, KC[0]));
    y3 = _mm256_xor_si256(y3, _mm256_xor_si256(n3, KC[0]));
    if (enc) {
      for (int r = 1; r <= 9; r++) Y4(_mm256_aesenc_epi128, KC[r]);
      Y4(_mm256_aesenclast_epi128, KC[10]);
    } else {
      for (int r = 1; r <= 9; r++) Y4(_mm256_aesdec_epi128, KC[r]);
      Y4(_mm256_aesdeclast_epi128, KC[10]);
    }
    y0 = _mm256_xor_si256(y0, n0); y1 = _mm256_xor_si256(y1, n1);
    y2 = _mm256_xor_si256(y2, n2); y3 = _mm256_xor_si256(y3, n3);
    YSTORE4(dst + 16 * i);
  }
  if (i < nblocks)
    aesni_xex(rk, enc, t0 + (uint64_t)i * step, step, src + 16 * i,
              dst + 16 * i, nblocks - i);
}

#endif /* __x86_64__ && __GNUC__ */

/* ------------------------------------------------------------------ */
/* Dispatch + OCaml entry points                                      */
/* ------------------------------------------------------------------ */

static int active_backend = BK_UNDETECTED;
static int cpu_flags = -1;

static int get_cpu_flags(void)
{
  if (cpu_flags >= 0) return cpu_flags;
  int f = 0;
#ifdef FIDELIUS_AESNI_POSSIBLE
  unsigned int eax, ebx, ecx, edx;
  if (__get_cpuid(1, &eax, &ebx, &ecx, &edx)) {
    if ((ecx >> 25) & 1) f |= F_AES;
    if ((ecx >> 9) & 1) f |= F_SSSE3;
    if ((ecx >> 19) & 1) f |= F_SSE41;
    if ((ecx >> 27) & 1) { /* OSXSAVE: xgetbv is usable */
      uint32_t lo, hi;
      __asm__ volatile(".byte 0x0f, 0x01, 0xd0" /* xgetbv */
                       : "=a"(lo), "=d"(hi)
                       : "c"(0));
      (void)hi;
      if ((lo & 0x6) == 0x6) f |= F_YMM_OS; /* XMM + YMM state enabled */
    }
  }
  if (__get_cpuid_count(7, 0, &eax, &ebx, &ecx, &edx)) {
    if ((ebx >> 5) & 1) f |= F_AVX2;
    if ((ebx >> 29) & 1) f |= F_SHA;
    if ((ecx >> 9) & 1) f |= F_VAES;
  }
#endif
  cpu_flags = f;
  return f;
}

static int vaes_usable(void)
{
  int need = F_VAES | F_AVX2 | F_AES | F_YMM_OS;
  return (get_cpu_flags() & need) == need;
}

static int aesni_usable(void)
{
  return (get_cpu_flags() & F_AES) != 0;
}

static int detect(void)
{
  if (active_backend == BK_UNDETECTED) {
    init_tables();
#ifdef FIDELIUS_VAES_POSSIBLE
    if (vaes_usable()) active_backend = BK_VAES;
    else
#endif
#ifdef FIDELIUS_AESNI_POSSIBLE
    if (aesni_usable()) active_backend = BK_AESNI;
    else
#endif
      active_backend = BK_PORTABLE;
  }
  return active_backend;
}

CAMLprim value fidelius_aes_backend(value unit)
{
  (void)unit;
  return Val_long(detect());
}

/* Testing aid: 0 = auto re-probe, 1 = VAES, 2 = AES-NI, 3 = portable.
 * A request for an unavailable tier leaves the selection unchanged.
 * Returns the backend that is active afterwards. */
CAMLprim value fidelius_aes_force_backend(value vmode)
{
  long mode = Long_val(vmode);
  (void)detect();
  switch (mode) {
    case 0:
      active_backend = BK_UNDETECTED;
      break;
#ifdef FIDELIUS_VAES_POSSIBLE
    case BK_VAES:
      if (vaes_usable()) active_backend = BK_VAES;
      break;
#endif
#ifdef FIDELIUS_AESNI_POSSIBLE
    case BK_AESNI:
      if (aesni_usable()) active_backend = BK_AESNI;
      break;
#endif
    case BK_PORTABLE:
      active_backend = BK_PORTABLE;
      break;
    default:
      break;
  }
  return Val_long(detect());
}

CAMLprim value fidelius_aes_cpu_flags(value unit)
{
  (void)unit;
  return Val_long(get_cpu_flags());
}

CAMLprim value fidelius_aes_expand(value vraw, value vrk)
{
  const uint8_t *raw = (const uint8_t *)Bytes_val(vraw);
  uint8_t *rk = (uint8_t *)Bytes_val(vrk);
#ifdef FIDELIUS_AESNI_POSSIBLE
  if (detect() != BK_PORTABLE) {
    aesni_expand(raw, rk);
    return Val_unit;
  }
#endif
  (void)detect();
  portable_expand(raw, rk);
  return Val_unit;
}

CAMLprim value fidelius_aes_blocks(value vrk, value venc, value vsrc,
                                   value vsoff, value vdst, value vdoff,
                                   value vn)
{
  const uint8_t *rk = (const uint8_t *)Bytes_val(vrk);
  int enc = Bool_val(venc);
  const uint8_t *src = (const uint8_t *)Bytes_val(vsrc) + Long_val(vsoff);
  uint8_t *dst = (uint8_t *)Bytes_val(vdst) + Long_val(vdoff);
  long n = Long_val(vn);
  switch (detect()) {
#ifdef FIDELIUS_VAES_POSSIBLE
    /* Runs shorter than one 8-block group never reach the 256-bit loop,
     * and the ymm round-key broadcasts plus the AVX/SSE transition cost
     * ~9x a single aesenc chain — take the 128-bit core straight away. */
    case BK_VAES:
      if (n < 8) aesni_ecb(rk, enc, src, dst, n);
      else vaes_ecb(rk, enc, src, dst, n);
      break;
#endif
#ifdef FIDELIUS_AESNI_POSSIBLE
    case BK_AESNI: aesni_ecb(rk, enc, src, dst, n); break;
#endif
    default: portable_ecb(rk, enc, src, dst, n); break;
  }
  return Val_unit;
}

CAMLprim value fidelius_aes_blocks_bytecode(value *argv, int argn)
{
  (void)argn;
  return fidelius_aes_blocks(argv[0], argv[1], argv[2], argv[3], argv[4],
                             argv[5], argv[6]);
}

CAMLprim value fidelius_aes_ctr(value vrk, value vnonce, value vsrc,
                                value vsoff, value vdst, value vdoff,
                                value vlen)
{
  const uint8_t *rk = (const uint8_t *)Bytes_val(vrk);
  uint64_t nonce = (uint64_t)Int64_val(vnonce);
  const uint8_t *src = (const uint8_t *)Bytes_val(vsrc) + Long_val(vsoff);
  uint8_t *dst = (uint8_t *)Bytes_val(vdst) + Long_val(vdoff);
  long len = Long_val(vlen);
  switch (detect()) {
#ifdef FIDELIUS_VAES_POSSIBLE
    case BK_VAES:
      if (len < 128) aesni_ctr(rk, nonce, 0, src, dst, len);
      else vaes_ctr(rk, nonce, src, dst, len);
      break;
#endif
#ifdef FIDELIUS_AESNI_POSSIBLE
    case BK_AESNI: aesni_ctr(rk, nonce, 0, src, dst, len); break;
#endif
    default: portable_ctr(rk, nonce, src, dst, len); break;
  }
  return Val_unit;
}

CAMLprim value fidelius_aes_ctr_bytecode(value *argv, int argn)
{
  (void)argn;
  return fidelius_aes_ctr(argv[0], argv[1], argv[2], argv[3], argv[4],
                          argv[5], argv[6]);
}

static void xex_dispatch(const uint8_t *rk, int enc, uint64_t t0,
                         uint64_t step, const uint8_t *src, uint8_t *dst,
                         long nblocks)
{
  switch (detect()) {
#ifdef FIDELIUS_VAES_POSSIBLE
    case BK_VAES:
      if (nblocks < 8) aesni_xex(rk, enc, t0, step, src, dst, nblocks);
      else vaes_xex(rk, enc, t0, step, src, dst, nblocks);
      break;
#endif
#ifdef FIDELIUS_AESNI_POSSIBLE
    case BK_AESNI: aesni_xex(rk, enc, t0, step, src, dst, nblocks); break;
#endif
    default: portable_xex(rk, enc, t0, step, src, dst, nblocks); break;
  }
}

CAMLprim value fidelius_aes_xex(value vrk, value venc, value vt0, value vstep,
                                value vsrc, value vsoff, value vdst,
                                value vdoff, value vlen)
{
  xex_dispatch((const uint8_t *)Bytes_val(vrk), Bool_val(venc),
               (uint64_t)Int64_val(vt0), (uint64_t)Int64_val(vstep),
               (const uint8_t *)Bytes_val(vsrc) + Long_val(vsoff),
               (uint8_t *)Bytes_val(vdst) + Long_val(vdoff),
               Long_val(vlen) / 16);
  return Val_unit;
}

CAMLprim value fidelius_aes_xex_bytecode(value *argv, int argn)
{
  (void)argn;
  return fidelius_aes_xex(argv[0], argv[1], argv[2], argv[3], argv[4],
                          argv[5], argv[6], argv[7], argv[8]);
}

/* Sector-granular XEX: [nsectors] equal tiles of [sector_bytes] each, the
 * tweak restarting at t0 + i*stride for tile i and advancing by 1 per
 * 16-byte block inside the tile — the disk-codec layout, where each
 * 512-byte sector owns a 64-wide tweak lane.  The per-sector tweak
 * sequence is not one affine progression (the stride between tiles differs
 * from the intra-tile step), so it cannot ride fidelius_aes_xex; this
 * entry runs the whole multi-sector batch in one FFI crossing instead. */
CAMLprim value fidelius_aes_xex_sectors(value vrk, value venc, value vt0,
                                        value vstride, value vsrc, value vsoff,
                                        value vdst, value vdoff,
                                        value vsector_bytes, value vnsectors)
{
  const uint8_t *rk = (const uint8_t *)Bytes_val(vrk);
  int enc = Bool_val(venc);
  uint64_t t0 = (uint64_t)Int64_val(vt0);
  uint64_t stride = (uint64_t)Int64_val(vstride);
  const uint8_t *src = (const uint8_t *)Bytes_val(vsrc) + Long_val(vsoff);
  uint8_t *dst = (uint8_t *)Bytes_val(vdst) + Long_val(vdoff);
  long sector_bytes = Long_val(vsector_bytes);
  long nsectors = Long_val(vnsectors);
  long nblocks = sector_bytes / 16;
  long i;
  for (i = 0; i < nsectors; i++)
    xex_dispatch(rk, enc, t0 + (uint64_t)i * stride, 1,
                 src + i * sector_bytes, dst + i * sector_bytes, nblocks);
  return Val_unit;
}

CAMLprim value fidelius_aes_xex_sectors_bytecode(value *argv, int argn)
{
  (void)argn;
  return fidelius_aes_xex_sectors(argv[0], argv[1], argv[2], argv[3], argv[4],
                                  argv[5], argv[6], argv[7], argv[8], argv[9]);
}
