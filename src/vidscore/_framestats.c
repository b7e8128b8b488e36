/* One pass over a frame's RGB24 pixels for vidscore.frames.

   vidscore_frame_stats writes the HSV set of a frame of n pixels: hue
   looked up in the table of frames._hue_table, saturation as
   chroma / max(value, 1) * 255 in float32, and value in uint8. Given the
   previous frame's set, it also writes the per-pixel hue change, taken on
   the shorter arc of the 256-unit circle, and the absolute saturation
   change to dh and ds, both float32, and stores the exact sum of the
   absolute value changes in *dv_sum. It returns the exact sum of every
   channel of every pixel.

   Every float operation is the one the numpy path takes, in float32 and
   in the same order, so built without contraction (-ffp-contract=off) and
   without -ffast-math it gives the same bits. The pixels go in chunks
   small enough for stack buffers, and each step is its own loop over a
   chunk, on pointers declared not to alias, which the compiler can
   vectorise. */

#include <math.h>
#include <stdint.h>

#define CHUNK 512 /* uint32 sums of a chunk: 512 * 3 * 255 < 2**32 */

/* Pixels start to start + m of the frame; returns their channel sum and,
   given a previous set, adds their value changes to *dv_sum. */
static uint32_t chunk(int64_t start, int m, const uint8_t *restrict rgb,
                      float *restrict hue, float *restrict sat, uint8_t *restrict val,
                      const float *restrict prev_hue, const float *restrict prev_sat,
                      const uint8_t *restrict prev_val, const float *restrict table,
                      float *restrict dh, float *restrict ds, uint64_t *restrict dv_sum)
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
    for (int i = 0; i < m; i++) {
        float d = (float)v[i];
        s[i] = (float)chroma[i] / (d > 1.0f ? d : 1.0f) * 255.0f;
    }
    if (!prev_hue)
        return sum;
    const float *restrict ph = prev_hue + start, *restrict ps = prev_sat + start;
    const uint8_t *restrict pv = prev_val + start;
    float *restrict oh = dh + start, *restrict os = ds + start;
    uint32_t dv = 0;
    for (int i = 0; i < m; i++) {
        float d = fabsf(h[i] - ph[i]), w = 256.0f - d;
        oh[i] = d < w ? d : w;
    }
    for (int i = 0; i < m; i++)
        os[i] = fabsf(s[i] - ps[i]);
    for (int i = 0; i < m; i++) {
        int d = v[i] - pv[i];
        dv += (uint32_t)(d < 0 ? -d : d);
    }
    *dv_sum += dv;
    return sum;
}

uint64_t vidscore_frame_stats(const uint8_t *rgb, int64_t n,
                              float *hue, float *sat, uint8_t *val,
                              const float *prev_hue, const float *prev_sat,
                              const uint8_t *prev_val, const float *table,
                              float *dh, float *ds, uint64_t *dv_sum)
{
    uint64_t total = 0;
    *dv_sum = 0;
    for (int64_t start = 0; start < n; start += CHUNK)
        total += chunk(start, n - start < CHUNK ? (int)(n - start) : CHUNK, rgb, hue, sat,
                       val, prev_hue, prev_sat, prev_val, table, dh, ds, dv_sum);
    return total;
}
