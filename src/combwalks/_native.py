"""One C source for the package's compiled loops: ``philox_fill``,
``comb_step`` (every product, grid2d too, and the lazy walk; uniforms
time-major, a row per step) and ``observe`` (a window's meetings and
depths); where the CPU reports AVX-512F, DQ and VL they run AVX-512 builds
(the first two hand-written, 16 streams or 8 walkers per vector;
``observe`` the compiler's vectorization of its one loop), with the same
bytes; ``csr_rows`` and ``csr_scatter`` (the oracle's step, flushing values
below 2^-1022 to 0, and its CSR); ``jsonl_scan`` and ``jsonl_print``
(canonical summary lines into int columns and back, one template for
both).  Built on first use, cached by source, loaded by ctypes."""

import contextlib
import ctypes
import functools
import hashlib
import os
import subprocess
import sysconfig
import tempfile


class BuildError(RuntimeError):
    """The shared library could not be built."""


_SOURCE = r"""
#include <stdint.h>
#include <string.h>
#if defined(__SSE2__)
#include <xmmintrin.h>
#endif

/* the moves of tooth class t: -, + of each coordinate; 4 and up are none */
static const int64_t D[2][8] = {{-1, 1}, {0, 0, -1, 1}};

/* The window observer of every kernel: rows 1 .. len of the history `pos`,
   (coords, width) states each, where walkers b and B + b (B = width / 2)
   are a pair.  Writes (row - 1, b) of each pair that meets, in row-major
   order, to hits[2n], hits[2n + 1] and returns the count n.  The depth of
   a walker is max |coordinate c| over 1 <= c <= depth (0: none); it is
   folded into max_depth, its window maximum written to *d_max.  observe
   runs it, as observe_lanes where the CPU has AVX-512F, DQ and VL */
static inline __attribute__((always_inline)) int64_t observe_rows(
    const int64_t *pos, int64_t coords, int64_t width, int64_t depth,
    int64_t *max_depth, int32_t *hits, int64_t *d_max, int64_t len)
{
    const int64_t half = width / 2;
    int64_t n = 0, top = 0;
    for (int64_t i = 1; i <= len; i++) {
        const int64_t *p = pos + i * coords * width, *q = p + half;
        for (int64_t b = 0; b < half; b++)
            if (p[b] == q[b]) {         /* most pairs differ in the base */
                int64_t c = 1;
                while (c < coords && p[c * width + b] == q[c * width + b])
                    c++;
                if (c == coords)
                    hits[2 * n] = i - 1, hits[2 * n + 1] = b, n++;
            }
        for (int64_t c = 1; c <= depth; c++)
            for (int64_t w = 0; w < width; w++) {
                int64_t v = p[c * width + w], d = v < 0 ? -v : v;
                max_depth[w] = d > max_depth[w] ? d : max_depth[w];
                top = d > top ? d : top;
            }
    }
    *d_max = top;
    return n;
}

#if defined(__x86_64__) && defined(__GNUC__)
#include <immintrin.h>
#define LANES __attribute__((target("avx512f,avx512dq,avx512vl")))
#define HAS_LANES (__builtin_cpu_supports("avx512f") && \
    __builtin_cpu_supports("avx512dq") && __builtin_cpu_supports("avx512vl"))
#define SET1(x) _mm512_set1_epi64((int64_t)(x))
#define SRL _mm512_srli_epi64
#define MUL _mm512_mul_epu32

/* hi and (in *lo) lo of the 128-bit a * m in each 64-bit lane, from four
   32 x 32 -> 64-bit products; no sum below overflows */
LANES static inline __m512i mul128(__m512i a, __m512i m, __m512i *lo)
{
    const __m512i ah = SRL(a, 32), mh = SRL(m, 32), ll = MUL(a, m),
        t = MUL(a, mh) + SRL(ll, 32), s = MUL(ah, m) + (t & SET1(~0u));
    *lo = _mm512_mask_blend_epi32(0x5555, _mm512_slli_epi64(s, 32), ll);
    return MUL(ah, mh) + SRL(t, 32) + SRL(s, 32);
}

/* philox_fill on 16 streams: two groups of 8 keys, one key per 64-bit
   lane, both in flight; each word a 512-bit store per group to its row.
   Hand-written: GCC 12 leaves the rounds scalar, streams innermost too */
LANES static void philox_lanes(const uint64_t *keys, int64_t start,
                               int64_t len, char *out, int64_t ld,
                               int64_t shift)
{
    const __m512i even = _mm512_set_epi64(14, 12, 10, 8, 6, 4, 2, 0);
    __m512i k[4], c[8], lo0, lo1;       /* k0, k1; c0 .. c3 of each group */
    for (int g = 0; g < 4; g++)
        k[g] = _mm512_i64gather_epi64(even, keys + 16 * (g / 2) + g % 2, 8);
    for (int64_t i = 0; i < len; i += 4) {
        for (int q = 0; q < 8; q++)
            c[q] = SET1(q % 4 ? 0 : (start + i) / 4 + 1);
#pragma GCC unroll 20
        for (int r = 0; r < 20; r++) {      /* round r / 2 of group r % 2 */
            __m512i *x = c + r % 2 * 4, *kg = k + r % 2 * 2,
                    hi0 = mul128(x[0], SET1(0xD2E7470EE14C6C93u), &lo0),
                    hi1 = mul128(x[2], SET1(0xCA5A826395121157u), &lo1);
            x[0] = hi1 ^ x[1] ^ (kg[0] + SET1(r / 2 * 0x9E3779B97F4A7C15u));
            x[2] = hi0 ^ x[3] ^ (kg[1] + SET1(r / 2 * 0xBB67AE8584CAA73Bu));
            x[1] = lo1, x[3] = lo0;
        }
#pragma GCC unroll 8
        for (int q = 0; q < 8; q++)             /* the words as written */
            c[q] = shift ? _mm512_srl_epi64(c[q], _mm_cvtsi64_si128(shift))
                : _mm512_castpd_si512(_mm512_cvtepi64_pd(SRL(c[q], 11))
                                      * 0x1p-53);
        for (int q = 0; q < 4 && i + q < len; q++)     /* draw i + q */
            _mm512_storeu_si512(out + 8 * ld * (i + q), c[q]),
            _mm512_storeu_si512(out + 8 * ld * (i + q) + 64, c[4 + q]);
    }
}

/* comb_step on 8 walkers per vector, masked past the width.  A base move
   leaves t = c - nb < 0, whose low 3 bits pick zeros of D; a base on a
   cycle steps at most one past [0, mod), so the single edge flips by -1.
   Hand-written: GCC 12 builds a branch-free scalar step 16-26% slower */
#define LOAD(x) _mm512_maskz_loadu_epi64(m, x)      /* the lanes of m */
#define STORE(x, v) _mm512_mask_storeu_epi64(x, m, v)
LANES static void comb_lanes(const double *u0, const double *u1, int64_t ld,
                             int64_t *pos, int64_t width, int64_t len,
                             int64_t teeth, int64_t nb, int64_t mod)
{
    const int64_t base = nb > 0, row = (base + teeth) * width;
    for (int64_t i = 0; i < len; i++)
        for (int64_t w = 0; w < width; w += 8) {
            const __mmask8 m = width - w < 8 ? (1 << (width - w)) - 1 : 0xFF;
            int64_t *p = pos + i * row + w, *s = p + base * width;
            const __m512d u = _mm512_maskz_loadu_pd(m, u0 + i * ld + w);
            const __m512i t0 = teeth ? LOAD(s) : SET1(0),
                t1 = teeth > 1 ? LOAD(s + width) : SET1(0),
                c = _mm512_cvttpd_epi64(u * (double)(nb + 2 * teeth)),
                db = 2 * (u1 ? _mm512_cvttpd_epi64(_mm512_maskz_loadu_pd(
                        m, u1 + i * ld + w) * 2.0) : c) - SET1(1);
            const __mmask8 away = _mm512_test_epi64_mask(t0 | t1, t0 | t1),
                move = ~away & _mm512_cmplt_epi64_mask(c, SET1(nb));
            const __m512i t = _mm512_mask_blend_epi64(away, c - SET1(nb),
                _mm512_cvttpd_epi64(u * (double)(2 * teeth)));
            __m512i b = LOAD(p) + _mm512_maskz_mov_epi64(move, db);
            if (mod)        /* -1 up to mod - 1, mod down to 0: unsigned */
                b = _mm512_min_epu64(b, b + SET1(mod)),
                b = _mm512_min_epu64(b, b - SET1(mod));
            if (base) STORE(p + row, b);
            for (int d = 0; d < teeth; d++)
                STORE(s + row + d * width, LOAD(s + d * width)
                      + _mm512_permutexvar_epi64(t, _mm512_loadu_si512(D[d])));
        }
}

/* observe_rows built for AVX-512: GCC vectorizes its depth loop at -O3 */
LANES static int64_t observe_lanes(const int64_t *pos, int64_t coords,
    int64_t width, int64_t depth, int64_t *max_depth, int32_t *hits,
    int64_t *d_max, int64_t len)
{
    return observe_rows(pos, coords, width, depth, max_depth, hits, d_max,
                        len);
}
#endif

/* Philox4x64-10 (Salmon et al., SC11) as numpy's Philox: row i, column j
   of `out` (row stride ld) gets draw start + i of the stream keyed keys[2j],
   keys[2j + 1]: each word w as the double (w >> 11) * 2^-53, or as the
   integer w >> shift if shift > 0.  The loop below defines a stream; where
   the CPU reports AVX-512F, DQ and VL, each 16 columns run in philox_lanes
   with the same bytes, and the columns left over run here */
void philox_fill(const uint64_t *keys, int64_t n, int64_t start, int64_t len,
                 void *out, int64_t ld, int64_t shift)
{
    typedef unsigned __int128 u128;
    int64_t j = 0;
#if defined(__x86_64__) && defined(__GNUC__)
    if (n >= 16 && HAS_LANES)
        for (; j + 16 <= n; j += 16)
            philox_lanes(keys + 2 * j, start, len, (char *)out + 8 * j, ld,
                         shift);
#endif
    for (; j < n; j++)
        for (int64_t i = 0; i < len; i += 4) {  /* bump, then draw */
            uint64_t c[4] = {(uint64_t)(start + i) / 4 + 1, 0, 0, 0},
                     k0 = keys[2 * j], k1 = keys[2 * j + 1];
#pragma GCC unroll 10
            for (int r = 0; r < 10; r++, k0 += 0x9E3779B97F4A7C15u,
                                         k1 += 0xBB67AE8584CAA73Bu) {
                u128 p0 = (u128)c[0] * 0xD2E7470EE14C6C93u,
                     p1 = (u128)c[2] * 0xCA5A826395121157u;
                c[0] = (uint64_t)(p1 >> 64) ^ c[1] ^ k0, c[1] = (uint64_t)p1;
                c[2] = (uint64_t)(p0 >> 64) ^ c[3] ^ k1, c[3] = (uint64_t)p0;
            }
            for (int64_t q = i; q < len && q < i + 4; q++)
                if (shift) ((int64_t *)out)[q * ld + j] = c[q - i] >> shift;
                else ((double *)out)[q * ld + j] = (c[q - i] >> 11) * 0x1p-53;
        }
}

/* `_CombKernel` steps: row i + 1 of `pos` from row i and from row i of the
   uniforms u0, u1 (row stride ld).  On the spine the class of u0 is
   (int)(u0 * (nb + 2 teeth)): nb base moves, then -, + per tooth, for the
   direct and the lazy walk alike; off the spine it is (int)(u0 * 2 teeth).
   A base move is b-, b+ by its class (b- flips the single edge, nb = 1),
   or 2 (int)(u1 * 2) - 1 given u1; the lazy walk's hold is one.  nb = 0:
   no base (grid2d).  This loop defines a step; comb_lanes runs it like
   the fill */
void comb_step(const double *u0, const double *u1, int64_t ld,
               int64_t *pos, int64_t width, int64_t len, int64_t teeth,
               int64_t nb, int64_t mod)
{
    const int64_t base = nb > 0, row = (base + teeth) * width;
#if defined(__x86_64__) && defined(__GNUC__)
    if (HAS_LANES)
        comb_lanes(u0, u1, ld, pos, width, len, teeth, nb, mod);
    else
#endif
    for (int64_t i = 0; i < len; i++)
        for (int64_t w = 0; w < width; w++) {
            int64_t *p = pos + i * row + w, b = p[0], at = i * ld + w;
            int64_t *s = p + base * width;      /* the teeth */
            int64_t t0 = teeth ? s[0] : 0, t1 = teeth > 1 ? s[width] : 0;
            double u = u0[at];                  /* the spine class */
            int c = (int)(u * (double)(nb + 2 * teeth)), t = 4;
            if (t0 != 0 || t1 != 0)             /* off the spine */
                t = (int)(u * (double)(2 * teeth));
            else if (c >= nb)                   /* a tooth move */
                t = c - (int)nb;
            else                                /* b-, b+, flip or hold */
                b += u1 ? 2 * (int)(u1[at] * 2.0) - 1 : 2 * c - 1;
            if (mod && (b < 0 || b >= mod))     /* numpy's floor % */
                b = (b % mod + mod) % mod;
            if (base) p[row] = b;
            if (teeth) s[row] = t0 + D[0][t];
            if (teeth > 1) s[row + width] = t1 + D[1][t];
        }
}

int64_t observe(const int64_t *pos, int64_t coords, int64_t width,
                int64_t depth, int64_t *max_depth, int32_t *hits,
                int64_t *d_max, int64_t len)
{
#if defined(__x86_64__) && defined(__GNUC__)
    if (HAS_LANES)
        return observe_lanes(pos, coords, width, depth, max_depth, hits,
                             d_max, len);
#endif
    return observe_rows(pos, coords, width, depth, max_depth, hits, d_max,
                        len);
}

/* a line of to_json, method direct and no extras, as match reads it and
   print writes it; group 2 is the length of each vertex and final */
static const char FORM[] = "{\"T\":#,\"checkpoints\":[(0{\"meetings\":#,"
    "\"t\":#})],\"collisions\":[(1{\"l\":#,\"n\":#,\"vertex\":[(2#)]})],"
    "\"final\":{\"x\":[(2#)],\"y\":[(2#)]},\"max_tooth\":{\"x\":#,\"y\":#},"
    "\"meetings\":#,\"method\":\"direct\",\"replica\":#}";

/* *p past what template t matches, to its end or ')': '#' a JSON int of
   1 to 18 digits, stored at v[(*n)++]; "(k ... )" the enclosed 0 or more
   times, comma-separated, up to a ']', the count in r[k], the same each
   time; any other byte itself (NEXT).  Returns t there, or NULL */
#define NEXT(c) (*p < e && **p == (c) && ++*p)
static const char *match(const char **p, const char *e, const char *t,
                         int64_t *v, int64_t *n, int64_t *r)
{
    for (; *t && *t != ')'; t++)
        if (*t == '(') {
            const char *body = t + 2;
            int64_t k = 0, *c = r + (t[1] - '0');
            for (int d = 1; d; t++)                 /* t to its ')' */
                d += (t[1] == '(') - (t[1] == ')');
            for (; !(*p < e && **p == ']'); k++)
                if ((k && !NEXT(',')) || !match(p, e, body, v, n, r))
                    return NULL;
            if ((*c = *c < 0 ? k : *c) != k)       /* the same each time */
                return NULL;
        } else if (*t == '#') {
            const char *d = *p + (*p < e && **p == '-'), *q = d;
            uint64_t x = 0;                 /* 19 digits fit */
            while (q < e && q - d < 19 && *q >= '0' && *q <= '9')
                x = 10 * x + (*q++ - '0');
            if (q == d || q - d > 18 || (*d == '0' && q - d > 1))  /* 01 */
                return NULL;
            v[(*n)++] = d > *p ? -(int64_t)x : (int64_t)x, *p = q;
        } else if (!NEXT(*t))
            return NULL;
    return t;
}

/* read_summaries' scanner: line k of buf (ending at '\n' or at len) to
   row k of rows: its ints' end in v (-1: not in FORM), match's r[0 .. 2] */
void jsonl_scan(const char *buf, int64_t len, int64_t *v, int64_t *rows)
{
    const char *p = buf, *e = buf + len;
    for (int64_t n = 0, m; p < e; rows += 4) {
        const char *eol = memchr(p, '\n', e - p), *q = p;
        eol = eol ? eol : e;
        m = n, rows[1] = rows[2] = rows[3] = -1;
        rows[0] = match(&q, eol, FORM, v, &n, rows + 1) && q == eol ? n : -1;
        n = rows[0] < 0 ? m : n, p = eol + (eol < e);
    }
}

/* match in reverse: template t printed at *o, '#' from v[(*n)++], "(k ...)"
   r[k] times, comma-separated.  Returns t at its end or ')' */
static const char *print(char **o, const char *t, const int64_t *v,
                         int64_t *n, const int64_t *r)
{
    for (; *t && *t != ')'; t++)
        if (*t == '(') {
            const char *body = t + 2;
            for (int d = 1; d; t++)
                d += (t[1] == '(') - (t[1] == ')');
            for (int64_t k = 0; k < r[body[-1] - '0']; k++) {
                if (k) *(*o)++ = ',';
                print(o, body, v, n, r);
            }
        } else if (*t == '#') {
            const int64_t x = v[(*n)++];
            uint64_t u = x < 0 ? -(uint64_t)x : (uint64_t)x;   /* -2^63 too */
            char d[20], *q = d + 20;
            do *--q = (char)('0' + u % 10); while (u /= 10);
            if (x < 0) *(*o)++ = '-';
            memcpy(*o, q, d + 20 - q), *o += d + 20 - q;
        } else
            *(*o)++ = *t;
    return t;
}

/* write_summaries' printer: line k from row k of rows, as jsonl_scan
   writes it, and its ints in v, each line ended by '\n'; out holds 64
   bytes an int (a line has 5 ints or more).  Returns the bytes written */
int64_t jsonl_print(const int64_t *v, const int64_t *rows, int64_t lines,
                    char *out)
{
    char *o = out;
    for (int64_t k = 0, n = 0; k < lines; k++, *o++ = '\n')
        print(&o, FORM, v, &n, rows + 4 * k + 1);
    return o - out;
}

/* rows lo <= i < hi of y = P^T x, row i summing inv[k] x[k], k = indices[j],
   from 0.0 in order (unrolled: rows hold a few arcs); on SSE2 it runs with
   FTZ | DAZ, so values below 2^-1022 count as 0, then restores MXCSR.
   Returns the sum of y[i] y[i] w[i] over the rows, in order (0: no w) */
double csr_rows(const int32_t *indptr, const int32_t *indices,
                const double *inv, const double *x, double *y,
                const double *w, int64_t lo, int64_t hi)
{
    double acc = 0.0;
#if defined(__SSE2__)   /* subnormals each cost a microcode assist */
    const unsigned int mxcsr = _mm_getcsr();
    _mm_setcsr(mxcsr | 0x8040);         /* FTZ 0x8000 | DAZ 0x0040 */
#endif
    for (int64_t i = lo; i < hi; i++) {
        double s = 0.0;
#pragma GCC unroll 4
        for (int32_t j = indptr[i]; j < indptr[i + 1]; j++)
            s += inv[indices[j]] * x[indices[j]];
        y[i] = s;
        if (w) acc += s * s * w[i];
    }
#if defined(__SSE2__)
    _mm_setcsr(mxcsr);
#endif
    return acc;
}

/* CSR indices by a stable counting scatter: at[r] from row r's start up */
void csr_scatter(const int32_t *src, const int32_t *dst, int64_t arcs,
                 int32_t *at, int32_t *indices)
{
    for (int64_t j = 0; j < arcs; j++) indices[at[dst[j]]++] = src[j];
}
"""
# -O3: GCC 12's -O2 cost model leaves observe's depth loop scalar; no FMA
# (rows sum rounded products, in order); no -ffast-math (global FTZ)
_CFLAGS = ("-O3", "-shared", "-fPIC", "-std=c99", "-ffp-contract=off")
_CACHE = os.path.join(os.path.dirname(__file__), "__pycache__")


def _library_path(source, cache):
    """``source`` built by Python's own C compiler into ``cache``, named by
    the sha256 of source and flags; renamed into place, so concurrent
    builds are safe, and the builds of other sources in ``cache`` then
    removed.  OSError if ``cache`` cannot be written."""
    tag = hashlib.sha256("\0".join((source, *_CFLAGS)).encode()).hexdigest()
    path = os.path.join(cache, f"combwalks-{tag[:16]}.so")
    if os.path.exists(path):
        return path
    os.makedirs(cache, exist_ok=True)
    fd, tmp = tempfile.mkstemp(".tmp", dir=cache)
    os.close(fd)
    cc = (sysconfig.get_config_var("CC") or "cc").split()
    try:
        subprocess.run([*cc, *_CFLAGS, "-o", tmp, "-x", "c", "-"],
                       input=source.encode(), capture_output=True, check=True)
        os.replace(tmp, path)
    except (OSError, subprocess.CalledProcessError) as exc:
        why = getattr(exc, "stderr", b"").decode().strip().splitlines()
        raise BuildError(f"cannot build the shared library with {cc[0]}: "
                         f"{why[0] if why else exc}") from None
    finally:
        if os.path.exists(tmp):
            os.unlink(tmp)
    # *.tmp files are builds in progress: they stay
    for name in os.listdir(cache):
        if name.startswith("combwalks-") and name.endswith(".so") and (
                name != os.path.basename(path)):
            with contextlib.suppress(OSError):     # gone already, or not ours
                os.unlink(os.path.join(cache, name))
    return path


@functools.cache
def library():
    """The compiled loops; an unwritable cache builds them in a private
    temp directory, removed once they are loaded."""
    try:
        lib = ctypes.CDLL(_library_path(_SOURCE, _CACHE))
    except OSError:
        with tempfile.TemporaryDirectory() as tmp:
            lib = ctypes.CDLL(_library_path(_SOURCE, tmp))
    p, i = ctypes.c_void_p, ctypes.c_int64
    lib.philox_fill.argtypes = [p, i, i, i, p, i, i]
    lib.comb_step.argtypes = [p, p, i, p, i, i, i, i, i]
    lib.observe.argtypes = [p, i, i, i, p, p, p, i]
    lib.csr_rows.argtypes = [p, p, p, p, p, p, i, i]
    lib.csr_scatter.argtypes = [p, p, i, p, p]
    lib.jsonl_scan.argtypes = [p, i, p, p]
    lib.jsonl_print.argtypes = [p, p, i, p]
    lib.philox_fill.restype = lib.comb_step.restype = None
    lib.csr_scatter.restype = lib.jsonl_scan.restype = None
    lib.observe.restype = lib.jsonl_print.restype = i
    lib.csr_rows.restype = ctypes.c_double
    return lib
