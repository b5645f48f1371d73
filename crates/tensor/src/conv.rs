//! Direct (sliding-window) reference convolution.
//!
//! Implements Eq. (1) of the paper exactly:
//!
//! ```text
//! o(n,y,x) = Σ_k Σ_j Σ_i w^n(k,j,i) · a(k, j + y·S, i + x·S)
//! ```
//!
//! with zero padding and dilation generalizations. Accumulation is in `i64`
//! so results are exact for any 16-bit operands; [`requantize`] maps the wide
//! accumulator back into the 16-bit activation domain the way a hardware
//! output stage would (arithmetic shift + saturation).

use crate::fixed::sat16;
use crate::shape::ConvGeometry;
use crate::tensor::{Tensor3, Tensor4};

/// Computes a convolutional layer with exact 64-bit accumulation.
///
/// `bias`, when provided, must have one entry per filter and is added to
/// every output of that filter *before* requantization (it is expressed in
/// accumulator units, i.e. already scaled by the product of the input and
/// weight scales).
///
/// Returns the raw accumulator omap (`K × Ho × Wo`).
///
/// # Panics
///
/// Panics if the channel counts of `imap` and `fmaps` disagree, or if `bias`
/// is present with a length other than `K`.
///
/// # Example
///
/// ```
/// use diffy_tensor::{Tensor3, Tensor4, ConvGeometry, conv::conv2d};
/// let imap = Tensor3::from_vec(1, 1, 3, vec![1i16, 2, 3]);
/// let fmaps = Tensor4::from_vec(1, 1, 1, 2, vec![1i16, 1]);
/// let o = conv2d(&imap, &fmaps, None, ConvGeometry::unit());
/// assert_eq!(o.as_slice(), &[3, 5]);
/// ```
pub fn conv2d(
    imap: &Tensor3<i16>,
    fmaps: &Tensor4<i16>,
    bias: Option<&[i64]>,
    geom: ConvGeometry,
) -> Tensor3<i64> {
    let ishape = imap.shape();
    let fshape = fmaps.shape();
    assert_eq!(ishape.c, fshape.c, "channel mismatch: imap {} vs fmaps {}", ishape.c, fshape.c);
    if let Some(b) = bias {
        assert_eq!(b.len(), fshape.k, "bias length {} != filters {}", b.len(), fshape.k);
    }
    let oshape = geom.out_shape(ishape, fshape);
    let mut omap = Tensor3::<i64>::new(oshape.c, oshape.h, oshape.w);

    let pad = geom.pad as isize;
    let stride = geom.stride as isize;
    let dil = geom.dilation as isize;

    for n in 0..fshape.k {
        let b = bias.map(|b| b[n]).unwrap_or(0);
        for oy in 0..oshape.h {
            for ox in 0..oshape.w {
                let base_y = oy as isize * stride - pad;
                let base_x = ox as isize * stride - pad;
                let mut acc: i64 = b;
                for c in 0..fshape.c {
                    for j in 0..fshape.h {
                        let iy = base_y + j as isize * dil;
                        if iy < 0 || iy as usize >= ishape.h {
                            continue;
                        }
                        let row = imap.row(c, iy as usize);
                        for i in 0..fshape.w {
                            let ix = base_x + i as isize * dil;
                            if ix < 0 || ix as usize >= ishape.w {
                                continue;
                            }
                            let w = *fmaps.at(n, c, j, i) as i64;
                            let a = row[ix as usize] as i64;
                            acc += w * a;
                        }
                    }
                }
                *omap.at_mut(n, oy, ox) = acc;
            }
        }
    }
    omap
}

/// Computes the same convolution as [`conv2d`] with a cache-friendly,
/// weight-hoisted loop nest (weight scalar held in a register while an
/// entire output row is accumulated). Produces bit-identical results;
/// several times faster on large imaps, so the inference engine uses it.
///
/// # Panics
///
/// Same conditions as [`conv2d`].
pub fn conv2d_fast(
    imap: &Tensor3<i16>,
    fmaps: &Tensor4<i16>,
    bias: Option<&[i64]>,
    geom: ConvGeometry,
) -> Tensor3<i64> {
    let ishape = imap.shape();
    let fshape = fmaps.shape();
    assert_eq!(ishape.c, fshape.c, "channel mismatch: imap {} vs fmaps {}", ishape.c, fshape.c);
    if let Some(b) = bias {
        assert_eq!(b.len(), fshape.k, "bias length {} != filters {}", b.len(), fshape.k);
    }
    let oshape = geom.out_shape(ishape, fshape);
    let mut omap = Tensor3::<i64>::new(oshape.c, oshape.h, oshape.w);
    if oshape.is_empty() {
        return omap;
    }

    let pad = geom.pad as isize;
    let stride = geom.stride;
    let dil = geom.dilation as isize;

    for n in 0..fshape.k {
        if let Some(b) = bias {
            let bn = b[n];
            if bn != 0 {
                let plane = omap.as_mut_slice();
                let vol = oshape.h * oshape.w;
                for v in &mut plane[n * vol..(n + 1) * vol] {
                    *v = bn;
                }
            }
        }
        for c in 0..fshape.c {
            for j in 0..fshape.h {
                for i in 0..fshape.w {
                    let w = *fmaps.at(n, c, j, i) as i64;
                    if w == 0 {
                        continue;
                    }
                    for oy in 0..oshape.h {
                        let iy = oy as isize * stride as isize - pad + j as isize * dil;
                        if iy < 0 || iy as usize >= ishape.h {
                            continue;
                        }
                        let irow = imap.row(c, iy as usize);
                        // Valid ox range: 0 <= ox*stride - pad + i*dil < W.
                        let off = i as isize * dil - pad;
                        let ox_lo = if off >= 0 {
                            0
                        } else {
                            ((-off) as usize).div_ceil(stride)
                        };
                        let ox_hi_excl = {
                            // largest ox with ox*stride + off <= W-1
                            let lim = ishape.w as isize - 1 - off;
                            if lim < 0 {
                                0
                            } else {
                                (lim as usize / stride + 1).min(oshape.w)
                            }
                        };
                        if ox_lo >= ox_hi_excl {
                            continue;
                        }
                        let orow_start = oshape.index(n, oy, 0);
                        let orow =
                            &mut omap.as_mut_slice()[orow_start..orow_start + oshape.w];
                        if stride == 1 {
                            let ix0 = (ox_lo as isize + off) as usize;
                            let icols = &irow[ix0..ix0 + (ox_hi_excl - ox_lo)];
                            for (o, &a) in orow[ox_lo..ox_hi_excl].iter_mut().zip(icols) {
                                *o += w * a as i64;
                            }
                        } else {
                            for (ox, o) in
                                orow.iter_mut().enumerate().take(ox_hi_excl).skip(ox_lo)
                            {
                                let ix = (ox as isize * stride as isize + off) as usize;
                                *o += w * irow[ix] as i64;
                            }
                        }
                    }
                }
            }
        }
    }
    omap
}

/// Requantizes a wide accumulator omap back to 16-bit activations by an
/// arithmetic right shift (rounding toward negative infinity, as a hardware
/// shifter does) followed by saturation.
///
/// `shift` is normally the number of fractional bits of the weight
/// quantizer, so the output stays in the activation fixed-point format.
///
/// # Example
///
/// ```
/// use diffy_tensor::{Tensor3, conv::requantize};
/// let acc = Tensor3::from_vec(1, 1, 2, vec![1024i64, -1024]);
/// let out = requantize(&acc, 8);
/// assert_eq!(out.as_slice(), &[4, -4]);
/// ```
pub fn requantize(acc: &Tensor3<i64>, shift: u32) -> Tensor3<i16> {
    acc.map(|v| sat16(v >> shift))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::shape::Shape3;

    fn simple_imap() -> Tensor3<i16> {
        // 2 channels, 3x3, values 1..=18.
        Tensor3::from_vec(2, 3, 3, (1..=18).collect())
    }

    #[test]
    fn identity_filter_reproduces_center_channel_sum() {
        let imap = simple_imap();
        // One 2x1x1 filter of ones: output = sum over channels at each pixel.
        let fmaps = Tensor4::from_vec(1, 2, 1, 1, vec![1i16, 1]);
        let o = conv2d(&imap, &fmaps, None, ConvGeometry::unit());
        assert_eq!(o.shape().as_tuple(), (1, 3, 3));
        // a(0,y,x) + a(1,y,x) = v + (v + 9)
        let expect: Vec<i64> = (1..=9).map(|v| 2 * v + 9).collect();
        assert_eq!(o.as_slice(), &expect[..]);
    }

    #[test]
    fn matches_hand_computed_3x3() {
        let imap = Tensor3::from_vec(1, 3, 3, vec![1i16, 2, 3, 4, 5, 6, 7, 8, 9]);
        let fmaps = Tensor4::from_vec(1, 1, 3, 3, vec![1i16; 9]);
        let o = conv2d(&imap, &fmaps, None, ConvGeometry::unit());
        assert_eq!(o.shape().as_tuple(), (1, 1, 1));
        assert_eq!(o.as_slice(), &[45]);
    }

    #[test]
    fn same_padding_keeps_spatial_size_and_pads_with_zero() {
        let imap = Tensor3::from_vec(1, 2, 2, vec![1i16, 2, 3, 4]);
        let fmaps = Tensor4::from_vec(1, 1, 3, 3, vec![1i16; 9]);
        let o = conv2d(&imap, &fmaps, None, ConvGeometry::same(3, 3));
        assert_eq!(o.shape().as_tuple(), (1, 2, 2));
        // Every output is the sum of the in-range 2x2 block.
        assert_eq!(o.as_slice(), &[10, 10, 10, 10]);
    }

    #[test]
    fn stride_two_subsamples_outputs() {
        let imap = Tensor3::from_vec(1, 1, 5, vec![1i16, 2, 3, 4, 5]);
        let fmaps = Tensor4::from_vec(1, 1, 1, 1, vec![1i16]);
        let o = conv2d(&imap, &fmaps, None, ConvGeometry::strided(2, 0));
        assert_eq!(o.as_slice(), &[1, 3, 5]);
    }

    #[test]
    fn dilation_skips_intermediate_pixels() {
        let imap = Tensor3::from_vec(1, 1, 5, vec![1i16, 2, 3, 4, 5]);
        // 1x2 filter of ones, dilation 2: output(x) = a(x) + a(x+2).
        let fmaps = Tensor4::from_vec(1, 1, 1, 2, vec![1i16, 1]);
        let geom = ConvGeometry { stride: 1, pad: 0, dilation: 2 };
        let o = conv2d(&imap, &fmaps, None, geom);
        assert_eq!(o.as_slice(), &[4, 6, 8]);
    }

    #[test]
    fn bias_is_added_per_filter() {
        let imap = Tensor3::from_vec(1, 1, 2, vec![1i16, 1]);
        let fmaps = Tensor4::from_vec(2, 1, 1, 1, vec![1i16, 2]);
        let o = conv2d(&imap, &fmaps, Some(&[10, -10]), ConvGeometry::unit());
        assert_eq!(o.as_slice(), &[11, 11, -8, -8]);
    }

    #[test]
    fn negative_operands_accumulate_exactly() {
        let imap = Tensor3::from_vec(1, 1, 1, vec![i16::MIN]);
        let fmaps = Tensor4::from_vec(1, 1, 1, 1, vec![i16::MIN]);
        let o = conv2d(&imap, &fmaps, None, ConvGeometry::unit());
        assert_eq!(o.as_slice(), &[(i16::MIN as i64) * (i16::MIN as i64)]);
    }

    #[test]
    fn requantize_shifts_and_saturates() {
        let acc = Tensor3::from_vec(1, 1, 3, vec![i64::MAX, i64::MIN, 256]);
        let out = requantize(&acc, 8);
        assert_eq!(out.as_slice(), &[i16::MAX, i16::MIN, 1]);
    }

    #[test]
    fn requantize_rounds_toward_negative_infinity() {
        let acc = Tensor3::from_vec(1, 1, 2, vec![-1i64, 255]);
        let out = requantize(&acc, 8);
        assert_eq!(out.as_slice(), &[-1, 0]);
    }

    #[test]
    fn fast_conv_matches_reference_across_geometries() {
        // Deterministic pseudo-random imap/filters; sweep geometry space.
        let data: Vec<i16> = (0..4 * 9 * 11)
            .map(|i| ((i * 2654435761u64 as usize) % 511) as i16 - 255)
            .collect();
        let imap = Tensor3::from_vec(4, 9, 11, data);
        let wdata: Vec<i16> = (0..5 * 4 * 3 * 3)
            .map(|i| ((i * 40503) % 201) as i16 - 100)
            .collect();
        let fmaps = Tensor4::from_vec(5, 4, 3, 3, wdata);
        let bias: Vec<i64> = vec![5, -7, 0, 100, -1];
        for stride in 1..=3usize {
            for pad in 0..=2usize {
                for dilation in 1..=2usize {
                    let geom = ConvGeometry { stride, pad, dilation };
                    let a = conv2d(&imap, &fmaps, Some(&bias), geom);
                    let b = conv2d_fast(&imap, &fmaps, Some(&bias), geom);
                    assert_eq!(a, b, "geom {geom:?}");
                }
            }
        }
    }

    #[test]
    fn fast_conv_handles_empty_output() {
        let imap = Tensor3::<i16>::new(1, 2, 2);
        let fmaps = Tensor4::<i16>::new(1, 1, 3, 3);
        let o = conv2d_fast(&imap, &fmaps, None, ConvGeometry::unit());
        assert!(o.is_empty());
    }

    #[test]
    fn out_shape_matches_geometry_helper() {
        let imap = Tensor3::<i16>::new(4, 10, 12);
        let fmaps = Tensor4::<i16>::new(6, 4, 3, 3);
        let geom = ConvGeometry::strided(2, 1);
        let o = conv2d(&imap, &fmaps, None, geom);
        assert_eq!(o.shape(), geom.out_shape(imap.shape(), fmaps.shape()));
        assert_eq!(o.shape(), Shape3::new(6, 5, 6));
    }
}
