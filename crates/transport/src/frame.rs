//! Length-prefixed framing over byte streams.
//!
//! Each frame is a little-endian `u32` length followed by that many bytes
//! (one encoded [`Envelope`](crate::wire::Envelope)). Frames above
//! [`MAX_FRAME`] are rejected on both sides. [`read_frame`] reads an
//! async stream; [`read_frame_blocking`] reads a blocking one, for the
//! runtime's per-connection reader threads. Both apply the same length
//! rule.

use std::io::{self, Read};

use bytes::Bytes;
use tokio::io::{AsyncRead, AsyncReadExt, AsyncWrite, AsyncWriteExt};

/// Largest accepted frame (32 MiB).
pub const MAX_FRAME: usize = 32 * 1024 * 1024;

/// Writes one frame.
///
/// # Errors
///
/// I/O errors from the underlying writer, or `InvalidInput` if the
/// payload exceeds [`MAX_FRAME`].
pub async fn write_frame<W: AsyncWrite + Unpin>(writer: &mut W, payload: &[u8]) -> io::Result<()> {
    if payload.len() > MAX_FRAME {
        return Err(io::Error::new(
            io::ErrorKind::InvalidInput,
            format!("frame of {} bytes exceeds limit", payload.len()),
        ));
    }
    // One buffer, one write: a length prefix sent on its own makes the
    // peer's delayed ACK stall the payload behind it (Nagle), which cost
    // ~90 ms per frame on an established connection.
    let mut frame = Vec::with_capacity(4 + payload.len());
    push_frame(&mut frame, payload);
    writer.write_all(&frame).await?;
    writer.flush().await
}

/// Appends one frame carrying `payload` to `buf`. The caller has checked
/// that `payload` is at most [`MAX_FRAME`], so its length fits the prefix.
pub(crate) fn push_frame(buf: &mut Vec<u8>, payload: &[u8]) {
    buf.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    buf.extend_from_slice(payload);
}

/// The payload length a frame's prefix announces, refused above
/// [`MAX_FRAME`].
#[deny(
    clippy::indexing_slicing,
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::arithmetic_side_effects
)]
fn payload_len(prefix: [u8; 4]) -> io::Result<usize> {
    let len = u32::from_le_bytes(prefix) as usize;
    if len > MAX_FRAME {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            format!("frame length {len} exceeds limit"),
        ));
    }
    Ok(len)
}

/// Reads one frame. Returns `Ok(None)` on clean EOF at a frame boundary.
///
/// # Errors
///
/// I/O errors, `UnexpectedEof` inside a frame, or `InvalidData` for an
/// oversized length prefix.
#[deny(
    clippy::indexing_slicing,
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::arithmetic_side_effects
)]
pub async fn read_frame<R: AsyncRead + Unpin>(reader: &mut R) -> io::Result<Option<Bytes>> {
    let mut prefix = [0u8; 4];
    match reader.read_exact(&mut prefix).await {
        Ok(_) => {}
        Err(e) if e.kind() == io::ErrorKind::UnexpectedEof => return Ok(None),
        Err(e) => return Err(e),
    }
    let mut payload = vec![0u8; payload_len(prefix)?];
    reader.read_exact(&mut payload).await?;
    Ok(Some(Bytes::from(payload)))
}

/// [`read_frame`] over a blocking reader: the calling thread waits in the
/// kernel until the bytes arrive.
///
/// # Errors
///
/// As [`read_frame`].
#[deny(
    clippy::indexing_slicing,
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::arithmetic_side_effects
)]
pub fn read_frame_blocking<R: Read>(reader: &mut R) -> io::Result<Option<Bytes>> {
    let mut prefix = [0u8; 4];
    match reader.read_exact(&mut prefix) {
        Ok(()) => {}
        Err(e) if e.kind() == io::ErrorKind::UnexpectedEof => return Ok(None),
        Err(e) => return Err(e),
    }
    let mut payload = vec![0u8; payload_len(prefix)?];
    reader.read_exact(&mut payload)?;
    Ok(Some(Bytes::from(payload)))
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::task::{Context, Poll};

    /// Accepts everything and counts `poll_write` calls.
    #[derive(Default)]
    struct CountingWriter {
        writes: usize,
        bytes: Vec<u8>,
    }

    impl AsyncWrite for CountingWriter {
        fn poll_write(&mut self, _cx: &mut Context<'_>, buf: &[u8]) -> Poll<io::Result<usize>> {
            self.writes += 1;
            self.bytes.extend_from_slice(buf);
            Poll::Ready(Ok(buf.len()))
        }

        fn poll_flush(&mut self, _cx: &mut Context<'_>) -> Poll<io::Result<()>> {
            Poll::Ready(Ok(()))
        }
    }

    #[tokio::test]
    async fn one_write_call_per_frame() {
        let mut w = CountingWriter::default();
        write_frame(&mut w, b"hello").await.unwrap();
        assert_eq!(w.writes, 1, "prefix and payload must leave in one write");
        write_frame(&mut w, b"").await.unwrap();
        assert_eq!(w.writes, 2);
        assert_eq!(w.bytes, b"\x05\0\0\0hello\0\0\0\0");
    }

    #[tokio::test]
    async fn round_trips_frames() {
        let (mut a, mut b) = tokio::io::duplex(1024);
        write_frame(&mut a, b"hello").await.unwrap();
        write_frame(&mut a, b"").await.unwrap();
        write_frame(&mut a, b"world!").await.unwrap();
        drop(a);
        assert_eq!(read_frame(&mut b).await.unwrap().unwrap(), &b"hello"[..]);
        assert_eq!(read_frame(&mut b).await.unwrap().unwrap(), &b""[..]);
        assert_eq!(read_frame(&mut b).await.unwrap().unwrap(), &b"world!"[..]);
        assert!(read_frame(&mut b).await.unwrap().is_none());
    }

    #[tokio::test]
    async fn eof_mid_frame_is_an_error() {
        let (mut a, mut b) = tokio::io::duplex(1024);
        a.write_all(&10u32.to_le_bytes()).await.unwrap();
        a.write_all(b"abc").await.unwrap();
        drop(a);
        let err = read_frame(&mut b).await.unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::UnexpectedEof);
    }

    #[tokio::test]
    async fn oversized_length_rejected() {
        let (mut a, mut b) = tokio::io::duplex(1024);
        a.write_all(&(u32::MAX).to_le_bytes()).await.unwrap();
        let err = read_frame(&mut b).await.unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
    }

    #[test]
    fn blocking_reader_round_trips_frames() {
        let mut wire = Vec::new();
        for payload in [&b"hello"[..], b"", b"world!"] {
            wire.extend_from_slice(&(payload.len() as u32).to_le_bytes());
            wire.extend_from_slice(payload);
        }
        let mut r = &wire[..];
        assert_eq!(read_frame_blocking(&mut r).unwrap().unwrap(), &b"hello"[..]);
        assert_eq!(read_frame_blocking(&mut r).unwrap().unwrap(), &b""[..]);
        assert_eq!(
            read_frame_blocking(&mut r).unwrap().unwrap(),
            &b"world!"[..]
        );
        assert!(read_frame_blocking(&mut r).unwrap().is_none());
    }

    #[test]
    fn blocking_reader_eof_mid_frame_is_an_error() {
        let mut wire = 10u32.to_le_bytes().to_vec();
        wire.extend_from_slice(b"abc");
        let err = read_frame_blocking(&mut &wire[..]).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::UnexpectedEof);
    }

    #[test]
    fn blocking_reader_rejects_oversized_length() {
        let wire = u32::MAX.to_le_bytes();
        let err = read_frame_blocking(&mut &wire[..]).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
    }

    #[tokio::test]
    async fn oversized_write_rejected() {
        let (mut a, _b) = tokio::io::duplex(64);
        let big = vec![0u8; MAX_FRAME + 1];
        let err = write_frame(&mut a, &big).await.unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidInput);
    }
}
