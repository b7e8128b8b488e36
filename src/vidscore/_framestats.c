/* One pass over a run of frames' RGB24 pixels for vidscore.frames.

   vidscore_frame_stats takes a run of count frames of n pixels each in one
   contiguous buffer, frame f at frames + 3 * n * f (the caller reads a run
   from the file straight into it, or copies frames into it), and two HSV
   sets, each the addresses of a hue, a saturation and a value array.
   Frame f writes set (first + f) % 2: hue looked up in the table of
   frames._hue_table, saturation as chroma / max(value, 1) * 255 in
   float32, and value in uint8; the other set holds the previous frame's,
   which frame 0 has where has_prev is set.
   Each frame fills a row of four int64: the exact sum of every channel of
   every pixel and, given a previous frame, the exact sums of the per-pixel
   changes: of hue, taken on the shorter arc of the 256-unit circle, in
   units of 2**-26; of saturation in units of 2**-24; and of value.

   Every float32 operation is the one the numpy path takes, in the same
   order, so built without contraction (-ffp-contract=off) and without
   -ffast-math it gives the same bits. Every table entry is a multiple of
   2**-26 in [0, 256), so every hue change is one in [0, 128]; a non-zero
   saturation is at least 0.5, so every saturation change is a multiple of
   2**-24 in [0, 255]. So a chunk's float64 totals, at most 2**16 (hue) and
   below 2**17 (saturation), are exact in any order, and each converts
   exactly into its integer sum, which holds a frame below 2**30 pixels.

   The pixels go in chunks small enough for stack buffers, and each step
   is its own loop over a chunk, on pointers declared not to alias, which
   the compiler can vectorise; the float64 totals run in LANES independent
   lanes for the same reason. On x86-64, where the compiler has
   target_clones and glibc the ifunc that picks a clone at load time, the
   pass also has an AVX2 body, which holds the same operations; defining
   FRAMESTATS_PLAIN builds the plain body alone. */

#include <math.h>
#include <stdint.h>

#define CHUNK 512 /* uint32 sums of a chunk: 512 * 3 * 255 < 2**32 */
#define LANES 8

#if defined(__x86_64__) && defined(__GLIBC__) && !defined(FRAMESTATS_PLAIN) && \
    defined(__has_attribute)
#if __has_attribute(target_clones)
#define DISPATCH __attribute__((target_clones("avx2", "default")))
/* so that each clone compiles the chunk for its own CPU */
#define INLINE static inline __attribute__((always_inline))
#endif
#endif
#ifndef DISPATCH
#define DISPATCH
#define INLINE static inline
#endif

/* Pixels start to start + m of the frame; returns their channel sum and,
   given a previous set, adds their changes to sums. */
INLINE uint32_t chunk(int64_t start, int m, const uint8_t *restrict rgb,
                      float *restrict hue, float *restrict sat, uint8_t *restrict val,
                      const float *restrict prev_hue, const float *restrict prev_sat,
                      const uint8_t *restrict prev_val, const float *restrict table,
                      int64_t *restrict sums)
{
    const uint8_t *restrict p = rgb + 3 * start;
    float *restrict h = hue + start, *restrict s = sat + start;
    uint8_t *restrict v = val + start;
    int32_t idx[CHUNK];
    uint8_t chroma[CHUNK];
    uint32_t sum = 0;
    for (int i = 0; i < m; i++) {
        int r = p[3 * i], g = p[3 * i + 1], b = p[3 * i + 2];
        int hi = r > g ? r : g, lo = r < g ? r : g;
        hi = hi > b ? hi : b;
        lo = lo < b ? lo : b;
        v[i] = (uint8_t)hi;
        chroma[i] = (uint8_t)(hi - lo);
        idx[i] = (r - g + 255) * 511 + (g - b + 255);
        sum += (uint32_t)(r + g + b);
    }
    for (int i = 0; i < m; i++)
        h[i] = table[idx[i]];
    for (int i = 0; i < m; i++) /* v | (v == 0) is max(v, 1) in a form that vectorises */
        s[i] = (float)chroma[i] / (float)(v[i] | (v[i] == 0)) * 255.0f;
    if (!prev_hue)
        return sum;
    const float *restrict ph = prev_hue + start, *restrict ps = prev_sat + start;
    const uint8_t *restrict pv = prev_val + start;
    float dh[CHUNK], ds[CHUNK];
    double hue_lanes[LANES] = {0}, sat_lanes[LANES] = {0}, hue_total = 0, sat_total = 0;
    uint32_t dv = 0;
    for (int i = 0; i < m; i++) {
        float d = fabsf(h[i] - ph[i]), w = 256.0f - d;
        dh[i] = d < w ? d : w;
    }
    for (int i = 0; i < m; i++)
        ds[i] = fabsf(s[i] - ps[i]);
    for (int i = m; i % LANES; i++) /* zeros up to a whole lane row; CHUNK is one */
        dh[i] = ds[i] = 0.0f;
    /* one loop per sum: GCC 12 vectorises these, and not one loop for both */
    for (int i = 0; i < m; i += LANES)
        for (int j = 0; j < LANES; j++)
            hue_lanes[j] += (double)dh[i + j];
    for (int i = 0; i < m; i += LANES)
        for (int j = 0; j < LANES; j++)
            sat_lanes[j] += (double)ds[i + j];
    for (int i = 0; i < m; i++) {
        int d = v[i] - pv[i];
        dv += (uint32_t)(d < 0 ? -d : d);
    }
    for (int j = 0; j < LANES; j++) {
        hue_total += hue_lanes[j];
        sat_total += sat_lanes[j];
    }
    sums[0] += (int64_t)(hue_total * 0x1p26);
    sums[1] += (int64_t)(sat_total * 0x1p24);
    sums[2] += dv;
    return sum;
}

DISPATCH void vidscore_frame_stats(const uint8_t *frames, int64_t count, int64_t n,
                                   void *const *sets, int64_t first, int64_t has_prev,
                                   const float *table, int64_t *rows)
{
    for (int64_t f = 0; f < count; f++) {
        int64_t set = (first + f) % 2;
        void *const *curr = sets + 3 * set, *const *prev = sets + 3 * !set;
        const uint8_t *rgb = frames + 3 * n * f;
        int64_t *row = rows + 4 * f;
        row[0] = row[1] = row[2] = row[3] = 0;
        for (int64_t start = 0; start < n; start += CHUNK)
            row[0] += chunk(start, n - start < CHUNK ? (int)(n - start) : CHUNK, rgb,
                           curr[0], curr[1], curr[2], f || has_prev ? prev[0] : 0, prev[1],
                           prev[2], table, row + 1);
    }
}
