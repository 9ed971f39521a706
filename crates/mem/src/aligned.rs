//! 8-byte-aligned byte buffers.
//!
//! Native-mode kernels view raw task data as `&[f64]` / `&[f32]` slices.
//! Plain `Vec<u8>` allocations only guarantee 1-byte alignment, so arena
//! buffers are backed by `u64` words instead: every buffer start is
//! 8-byte aligned and the float reinterpretations in `KernelCtx` are
//! always valid (for offsets that are multiples of the element size,
//! which the runtime asserts).

/// A heap buffer of `len` bytes whose storage is 8-byte aligned.
#[derive(Clone, Debug)]
pub struct AlignedBuf {
    words: Box<[u64]>,
    len: usize,
}

impl AlignedBuf {
    /// Zero-filled buffer of `len` bytes.
    pub fn zeroed(len: usize) -> AlignedBuf {
        AlignedBuf { words: vec![0u64; len.div_ceil(8)].into_boxed_slice(), len }
    }

    /// Buffer initialized from `bytes`.
    pub fn from_bytes(bytes: &[u8]) -> AlignedBuf {
        let mut buf = AlignedBuf::zeroed(bytes.len());
        buf.as_bytes_mut().copy_from_slice(bytes);
        buf
    }

    /// Buffer holding the native-endian bytes of `values`, built in one
    /// pass: each `f64` is one storage word.
    pub fn from_f64(values: &[f64]) -> AlignedBuf {
        AlignedBuf { words: values.iter().map(|v| v.to_bits()).collect(), len: values.len() * 8 }
    }

    /// Buffer holding the native-endian bytes of `values`, built in one
    /// pass: two `f32`s per storage word (an odd tail leaves the last
    /// word's upper half zero).
    pub fn from_f32(values: &[f32]) -> AlignedBuf {
        let words = values
            .chunks(2)
            .map(|pair| {
                let mut word = [0u8; 8];
                for (bytes, v) in word.chunks_exact_mut(4).zip(pair) {
                    bytes.copy_from_slice(&v.to_ne_bytes());
                }
                u64::from_ne_bytes(word)
            })
            .collect();
        AlignedBuf { words, len: values.len() * 4 }
    }

    /// Length in bytes.
    #[inline]
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the buffer holds zero bytes.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The bytes, immutably.
    #[inline]
    pub fn as_bytes(&self) -> &[u8] {
        // SAFETY: the words allocation covers at least `len` bytes
        // (zeroed rounds up), u8 has alignment 1, and the lifetime is
        // tied to `&self`.
        unsafe { std::slice::from_raw_parts(self.words.as_ptr().cast::<u8>(), self.len) }
    }

    /// The bytes, mutably.
    #[inline]
    pub fn as_bytes_mut(&mut self) -> &mut [u8] {
        // SAFETY: as in `as_bytes`, plus exclusive access via `&mut self`.
        unsafe { std::slice::from_raw_parts_mut(self.words.as_mut_ptr().cast::<u8>(), self.len) }
    }
}

impl PartialEq for AlignedBuf {
    fn eq(&self, other: &Self) -> bool {
        self.as_bytes() == other.as_bytes()
    }
}

impl Eq for AlignedBuf {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zeroed_has_requested_len() {
        for len in [0usize, 1, 7, 8, 9, 64, 1000] {
            let b = AlignedBuf::zeroed(len);
            assert_eq!(b.len(), len);
            assert!(b.as_bytes().iter().all(|&x| x == 0));
            assert_eq!(b.is_empty(), len == 0);
        }
    }

    #[test]
    fn from_bytes_roundtrips() {
        let data: Vec<u8> = (0..=255).collect();
        let b = AlignedBuf::from_bytes(&data);
        assert_eq!(b.as_bytes(), &data[..]);
    }

    #[test]
    fn mutation_is_visible() {
        let mut b = AlignedBuf::zeroed(16);
        b.as_bytes_mut()[3] = 42;
        assert_eq!(b.as_bytes()[3], 42);
    }

    #[test]
    fn start_is_8_aligned() {
        for len in [1usize, 5, 13, 100] {
            let b = AlignedBuf::zeroed(len);
            assert_eq!(b.as_bytes().as_ptr() as usize % 8, 0);
        }
    }

    #[test]
    fn float_views_are_safe() {
        let values = [1.5f64, -2.25, 1e300];
        let bytes: Vec<u8> = values.iter().flat_map(|v| v.to_ne_bytes()).collect();
        let b = AlignedBuf::from_bytes(&bytes);
        let (pre, mid, post) = unsafe { b.as_bytes().align_to::<f64>() };
        assert!(pre.is_empty() && post.is_empty());
        assert_eq!(mid, &values[..]);
    }

    #[test]
    fn typed_constructors_round_trip_bit_patterns() {
        let f64s = [
            -0.0f64,
            0.0,
            f64::from_bits(0x7ff8_0000_dead_beef), // quiet NaN with a payload
            f64::from_bits(0xfff0_0000_0000_0001), // signalling NaN, sign set
            f64::MIN_POSITIVE / 2.0,               // subnormal
            f64::INFINITY,
            -1.5,
        ];
        let b = AlignedBuf::from_f64(&f64s);
        let expected: Vec<u8> = f64s.iter().flat_map(|v| v.to_ne_bytes()).collect();
        assert_eq!(b.as_bytes(), &expected[..]);
        assert_eq!(b, AlignedBuf::from_bytes(&expected));
        let (_, back, _) = unsafe { b.as_bytes().align_to::<f64>() };
        assert!(back.iter().zip(&f64s).all(|(x, y)| x.to_bits() == y.to_bits()));

        // Odd length exercises the half-filled last word.
        let f32s = [-0.0f32, f32::from_bits(0x7fc0_1234), f32::from_bits(0xff80_0001), 3.25, -7.0];
        let b = AlignedBuf::from_f32(&f32s);
        let expected: Vec<u8> = f32s.iter().flat_map(|v| v.to_ne_bytes()).collect();
        assert_eq!(b.len(), 20);
        assert_eq!(b.as_bytes(), &expected[..]);
        let (_, back, _) = unsafe { b.as_bytes().align_to::<f32>() };
        assert!(back.iter().zip(&f32s).all(|(x, y)| x.to_bits() == y.to_bits()));

        assert!(AlignedBuf::from_f64(&[]).is_empty());
        assert!(AlignedBuf::from_f32(&[]).is_empty());
    }

    #[test]
    fn equality_is_by_content() {
        assert_eq!(AlignedBuf::from_bytes(&[1, 2, 3]), AlignedBuf::from_bytes(&[1, 2, 3]));
        assert_ne!(AlignedBuf::from_bytes(&[1, 2, 3]), AlignedBuf::from_bytes(&[1, 2, 4]));
    }
}
