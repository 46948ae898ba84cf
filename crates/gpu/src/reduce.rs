//! Element-wise reduction kernels over buffers.
//!
//! Collectives (MPI_Allreduce) combine received chunks with local data on
//! the GPU. We model the kernel's *time* through
//! [`crate::runtime::KernelCostModel`] and, for real buffers, apply the
//! arithmetic so correctness tests can verify end-to-end collective
//! results.
//!
//! Data is interpreted as little-endian `f32` (the common deep-learning
//! case) for [`ReduceOp::Sum`]/[`ReduceOp::Max`]; [`ReduceOp::BandU8`]
//! operates on raw bytes.

use crate::buffer::Buffer;

/// Supported reduction operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ReduceOp {
    /// Element-wise `f32` addition.
    Sum,
    /// Element-wise `f32` maximum.
    Max,
    /// Byte-wise AND (exercises non-float paths).
    BandU8,
}

/// Applies `dst[i] op= src[i]` over `len` bytes at the given offsets.
/// No-op if either buffer is synthetic.
///
/// # Panics
/// Panics on out-of-bounds ranges, if `src` and `dst` are one allocation,
/// or if `len` is not a multiple of 4 for the `f32` operators.
pub fn apply(op: ReduceOp, src: &Buffer, src_off: usize, dst: &Buffer, dst_off: usize, len: usize) {
    src.check_range("read", src_off, len);
    Buffer::with_pair(src, dst, |s, d| {
        let (s, d) = (&s[src_off..][..len], &mut d[dst_off..][..len]);
        match op {
            ReduceOp::BandU8 => d.iter_mut().zip(s).for_each(|(d, s)| *d &= s),
            ReduceOp::Sum | ReduceOp::Max => {
                assert_eq!(len % 4, 0, "f32 reduction needs 4-byte multiples");
                for (d, s) in d.chunks_exact_mut(4).zip(s.chunks_exact(4)) {
                    let a = f32::from_le_bytes(s.try_into().unwrap());
                    let b = f32::from_le_bytes((&*d).try_into().unwrap());
                    let r = if op == ReduceOp::Sum { a + b } else { a.max(b) };
                    d.copy_from_slice(&r.to_le_bytes());
                }
            }
        }
    });
}

/// Encodes a slice of `f32` as a little-endian byte vector (test helper).
pub fn f32_bytes(values: &[f32]) -> Vec<u8> {
    values.iter().flat_map(|v| v.to_le_bytes()).collect()
}

/// Decodes a little-endian byte vector into `f32`s (test helper).
pub fn bytes_f32(bytes: &[u8]) -> Vec<f32> {
    assert_eq!(bytes.len() % 4, 0);
    bytes
        .chunks_exact(4)
        .map(|c| f32::from_le_bytes(c.try_into().unwrap()))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use mpx_topo::DeviceId;

    #[test]
    fn sum_adds_f32() {
        let a = Buffer::from_bytes(DeviceId(0), f32_bytes(&[1.0, 2.0, 3.0]));
        let b = Buffer::from_bytes(DeviceId(1), f32_bytes(&[10.0, 20.0, 30.0]));
        apply(ReduceOp::Sum, &a, 0, &b, 0, 12);
        assert_eq!(bytes_f32(&b.to_vec().unwrap()), vec![11.0, 22.0, 33.0]);
    }

    #[test]
    fn max_takes_elementwise_max() {
        let a = Buffer::from_bytes(DeviceId(0), f32_bytes(&[5.0, -1.0]));
        let b = Buffer::from_bytes(DeviceId(1), f32_bytes(&[2.0, 3.0]));
        apply(ReduceOp::Max, &a, 0, &b, 0, 8);
        assert_eq!(bytes_f32(&b.to_vec().unwrap()), vec![5.0, 3.0]);
    }

    #[test]
    fn band_ands_bytes() {
        let a = Buffer::from_bytes(DeviceId(0), vec![0b1100, 0b1010]);
        let b = Buffer::from_bytes(DeviceId(1), vec![0b1010, 0b1010]);
        apply(ReduceOp::BandU8, &a, 0, &b, 0, 2);
        assert_eq!(b.to_vec().unwrap(), vec![0b1000, 0b1010]);
    }

    #[test]
    fn offsets_respected() {
        let a = Buffer::from_bytes(DeviceId(0), f32_bytes(&[0.0, 7.0]));
        let b = Buffer::from_bytes(DeviceId(1), f32_bytes(&[1.0, 1.0, 1.0]));
        apply(ReduceOp::Sum, &a, 4, &b, 8, 4);
        assert_eq!(bytes_f32(&b.to_vec().unwrap()), vec![1.0, 1.0, 8.0]);
    }

    #[test]
    fn synthetic_src_is_noop() {
        let a = Buffer::synthetic(DeviceId(0), 8);
        let b = Buffer::from_bytes(DeviceId(1), f32_bytes(&[1.0, 2.0]));
        apply(ReduceOp::Sum, &a, 0, &b, 0, 8);
        assert_eq!(bytes_f32(&b.to_vec().unwrap()), vec![1.0, 2.0]);
    }

    #[test]
    #[should_panic(expected = "4-byte multiples")]
    fn unaligned_f32_len_panics() {
        let a = Buffer::zeroed(DeviceId(0), 6);
        let b = Buffer::zeroed(DeviceId(1), 6);
        apply(ReduceOp::Sum, &a, 0, &b, 0, 6);
    }

    #[test]
    fn f32_roundtrip_helpers() {
        let vals = vec![1.5, -2.25, 1e10];
        assert_eq!(bytes_f32(&f32_bytes(&vals)), vals);
    }
}
