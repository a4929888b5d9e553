// Known-bad fixture: a core module writing and reading little-endian
// fields itself instead of through the codec's Put/Get impls.
// Never compiled — consumed as data by tests/lint_fixtures.rs.

use bytes::{Buf, BufMut, BytesMut};

pub fn encode_pair(a: u64, b: f64) -> BytesMut {
    let mut out = BytesMut::with_capacity(16);
    out.put_u64_le(a);
    out.put_f64_le(b);
    out
}

pub fn decode_pair(mut buf: &[u8]) -> Option<(u64, f64)> {
    if buf.len() != 16 {
        return None;
    }
    Some((buf.get_u64_le(), buf.get_f64_le()))
}
