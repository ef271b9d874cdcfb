//! Offline functional shim for the `bytes` crate.
//!
//! Implements the subset of the `bytes` API the workspace uses — [`Bytes`],
//! [`BytesMut`], and the write-side [`BufMut`] accessors the wire encoder
//! calls — with real behaviour (the wire-format round-trip tests exercise
//! it). [`Bytes`] is a cheaply cloneable `Arc`-backed buffer, as upstream.

use std::sync::Arc;

/// Write-side trait: append values to the end of a buffer.
pub trait BufMut {
    /// Append raw bytes.
    fn put_slice(&mut self, src: &[u8]);

    fn put_f32_le(&mut self, v: f32) {
        self.put_slice(&v.to_le_bytes());
    }

    fn put_u8(&mut self, v: u8) {
        self.put_slice(&[v]);
    }
}

/// An immutable, cheaply cloneable byte buffer.
///
/// Backed by an `Arc<Vec<u8>>` rather than an `Arc<[u8]>` so that
/// [`BytesMut::freeze`] (and `Bytes::from(Vec<u8>)`) is a pointer move —
/// converting a `Vec` into an `Arc<[u8]>` would copy every byte into a fresh
/// allocation, which on the encode hot path meant copying every wire buffer
/// once more than necessary.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Bytes {
    data: Arc<Vec<u8>>,
}

impl Bytes {
    /// Borrow a static slice (copied here; upstream borrows it zero-copy).
    pub fn from_static(src: &'static [u8]) -> Self {
        Self::from(src.to_vec())
    }

    /// Copy a slice into a new buffer.
    pub fn copy_from_slice(src: &[u8]) -> Self {
        Self::from(src.to_vec())
    }
}

impl From<Vec<u8>> for Bytes {
    fn from(v: Vec<u8>) -> Self {
        Self { data: Arc::new(v) }
    }
}

impl std::ops::Deref for Bytes {
    type Target = [u8];
    fn deref(&self) -> &[u8] {
        &self.data
    }
}

/// A growable byte buffer, frozen into [`Bytes`] when writing is done.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct BytesMut {
    data: Vec<u8>,
}

impl BytesMut {
    /// An empty buffer.
    pub fn new() -> Self {
        Self::default()
    }

    /// An empty buffer with reserved capacity.
    pub fn with_capacity(cap: usize) -> Self {
        Self {
            data: Vec::with_capacity(cap),
        }
    }

    /// Length in bytes.
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// Whether the buffer is empty.
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Convert into an immutable [`Bytes`].
    pub fn freeze(self) -> Bytes {
        Bytes::from(self.data)
    }
}

impl BufMut for BytesMut {
    fn put_slice(&mut self, src: &[u8]) {
        self.data.extend_from_slice(src);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn write_freeze_read_roundtrip() {
        let mut buf = BytesMut::with_capacity(8);
        buf.put_u8(7);
        buf.put_f32_le(1.5);
        buf.put_slice(&[1, 2]);
        assert_eq!(buf.len(), 7);
        let b = buf.freeze();
        assert_eq!(b[0], 7);
        assert_eq!(f32::from_le_bytes(b[1..5].try_into().unwrap()), 1.5);
        assert_eq!(&b[5..], &[1, 2]);
        assert_eq!(b, Bytes::copy_from_slice(&b));
    }
}
