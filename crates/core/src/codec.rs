//! Binary wire codec for advertisement messages.
//!
//! The simulator only needs message *sizes*, but a credible release of
//! this system must be able to put an [`AdMessage`] on a real radio.
//! This module defines the canonical little-endian encoding:
//!
//! ```text
//! magic  u16  0xAD5E
//! flags  u8   bit0 = flood info present
//! issuer u32 | seq u32                      (AdId)
//! issue_pos  f64 x2
//! issue_time u64 (micros)
//! initial_radius f64 | initial_duration u64
//! radius f64         | duration u64
//! topics: u16 count, u32 each
//! sketches: u8 F, u8 L, ceil(F*L/8) bit-packed bytes, u64 family seed
//! payload: u32 length, then the content bytes
//! flood info (if flagged): u32 wave, f64 radius
//! ```
//!
//! The simulator carries no actual content, so encoding writes
//! `payload_bytes` zero bytes and decoding recovers only the length —
//! semantically what the protocols need.
//!
//! This module is the single source of truth for message sizes: the
//! traffic accounting in `AdMessage::bytes` / `Advertisement::wire_bytes`
//! delegates to [`message_encoded_len`], and a test pins
//! `encode(msg).len() == message_encoded_len(msg)` exactly.

use crate::ad::Advertisement;
use crate::ids::{AdId, PeerId};
use crate::params::GossipParams;
use crate::protocol::{AdMessage, FloodInfo};
use ia_des::{SimDuration, SimTime};
use ia_geo::Point;
use ia_sketch::{FmBundle, FmSketch};
use std::fmt;

/// Wire-format magic number.
pub const MAGIC: u16 = 0xAD5E;

/// Size of the frame checksum trailer appended by [`encode_frame`].
pub const FRAME_CRC_BYTES: usize = 4;

/// Decoding failures.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CodecError {
    /// Input ended before the structure was complete.
    Truncated { needed: usize, have: usize },
    /// The magic number did not match.
    BadMagic(u16),
    /// A field held an impossible value.
    InvalidField(&'static str),
    /// The frame checksum trailer did not match the body
    /// ([`decode_frame`] only).
    ChecksumMismatch { expected: u32, found: u32 },
}

impl fmt::Display for CodecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CodecError::Truncated { needed, have } => {
                write!(f, "truncated message: needed {needed} bytes, have {have}")
            }
            CodecError::BadMagic(m) => write!(f, "bad magic 0x{m:04X}"),
            CodecError::InvalidField(name) => write!(f, "invalid field: {name}"),
            CodecError::ChecksumMismatch { expected, found } => write!(
                f,
                "frame checksum mismatch: expected 0x{expected:08X}, found 0x{found:08X}"
            ),
        }
    }
}

impl std::error::Error for CodecError {}

/// CRC-32 (IEEE 802.3, reflected polynomial `0xEDB88320`) over `bytes`.
///
/// Hand-rolled bitwise form — no lookup table. Frames here are a few
/// hundred bytes at most and the checksum runs once per injected
/// corruption check, so clarity beats throughput.
pub fn crc32(bytes: &[u8]) -> u32 {
    let mut crc: u32 = !0;
    for &b in bytes {
        crc ^= b as u32;
        for _ in 0..8 {
            let lsb = crc & 1;
            crc >>= 1;
            if lsb != 0 {
                crc ^= 0xEDB8_8320;
            }
        }
    }
    !crc
}

struct Writer {
    buf: Vec<u8>,
}

impl Writer {
    fn u8(&mut self, v: u8) {
        self.buf.push(v);
    }
    fn u16(&mut self, v: u16) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }
    fn u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }
    fn u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }
    fn f64(&mut self, v: f64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }
}

struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    fn new(buf: &'a [u8]) -> Self {
        Reader { buf, pos: 0 }
    }
    fn take(&mut self, n: usize) -> Result<&'a [u8], CodecError> {
        if self.pos + n > self.buf.len() {
            return Err(CodecError::Truncated {
                needed: self.pos + n,
                have: self.buf.len(),
            });
        }
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }
    fn u8(&mut self) -> Result<u8, CodecError> {
        Ok(self.take(1)?[0])
    }
    fn u16(&mut self) -> Result<u16, CodecError> {
        Ok(u16::from_le_bytes(self.take(2)?.try_into().unwrap()))
    }
    fn u32(&mut self) -> Result<u32, CodecError> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }
    fn u64(&mut self) -> Result<u64, CodecError> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }
    fn f64(&mut self) -> Result<f64, CodecError> {
        Ok(f64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }
}

/// Encode a message into bytes.
pub fn encode(msg: &AdMessage) -> Vec<u8> {
    encode_with_spare(msg, 0)
}

/// [`encode`] into a buffer sized up front to the exact body length
/// plus `spare` bytes, so neither the body nor a trailer of up to
/// `spare` bytes reallocates it.
fn encode_with_spare(msg: &AdMessage, spare: usize) -> Vec<u8> {
    let ad = &msg.ad;
    let mut w = Writer {
        buf: Vec::with_capacity(message_encoded_len(msg) + spare),
    };
    w.u16(MAGIC);
    w.u8(msg.flood.is_some() as u8);
    w.u32(ad.id.issuer.0);
    w.u32(ad.id.seq);
    w.f64(ad.issue_pos.x);
    w.f64(ad.issue_pos.y);
    w.u64(ad.issue_time.as_micros());
    w.f64(ad.initial_radius);
    w.u64(ad.initial_duration.as_micros());
    w.f64(ad.radius);
    w.u64(ad.duration.as_micros());
    w.u16(ad.topics.len() as u16);
    for &t in ad.topics.iter() {
        w.u32(t);
    }
    let sketches = ad.sketches.sketches();
    let l = sketches.first().map_or(16, |s| s.len());
    // The packing accumulator below holds < 8 leftover bits plus one
    // sketch, so L must fit in 56 bits (protocol sketches are 8-32).
    assert!(l <= 56, "sketch length {l} exceeds the wire format's limit");
    w.u8(sketches.len() as u8);
    w.u8(l);
    // Bit-pack the F sketches of L bits each.
    let mut acc: u64 = 0;
    let mut acc_bits: u32 = 0;
    for s in sketches {
        acc |= s.bits() << acc_bits;
        acc_bits += l as u32;
        while acc_bits >= 8 {
            w.u8((acc & 0xFF) as u8);
            acc >>= 8;
            acc_bits -= 8;
        }
    }
    if acc_bits > 0 {
        w.u8((acc & 0xFF) as u8);
    }
    w.u64(ad.sketches.family_seed());
    w.u32(ad.payload_bytes as u32);
    w.buf.resize(w.buf.len() + ad.payload_bytes, 0); // opaque content
    if let Some(flood) = msg.flood {
        w.u32(flood.wave);
        w.f64(flood.radius);
    }
    w.buf
}

/// Decode a message from bytes.
pub fn decode(bytes: &[u8]) -> Result<AdMessage, CodecError> {
    let mut r = Reader::new(bytes);
    let magic = r.u16()?;
    if magic != MAGIC {
        return Err(CodecError::BadMagic(magic));
    }
    let flags = r.u8()?;
    let issuer = PeerId(r.u32()?);
    let seq = r.u32()?;
    let issue_pos = Point::new(r.f64()?, r.f64()?);
    if !issue_pos.is_finite() {
        return Err(CodecError::InvalidField("issue_pos"));
    }
    let issue_time = SimTime::from_micros(r.u64()?);
    let initial_radius = r.f64()?;
    let initial_duration = SimDuration::from_micros(r.u64()?);
    let radius = r.f64()?;
    let duration = SimDuration::from_micros(r.u64()?);
    if !(initial_radius > 0.0 && radius > 0.0 && radius.is_finite()) {
        return Err(CodecError::InvalidField("radius"));
    }
    if initial_duration.is_zero() || duration.is_zero() {
        return Err(CodecError::InvalidField("duration"));
    }
    let n_topics = r.u16()? as usize;
    let mut topics = Vec::with_capacity(n_topics);
    for _ in 0..n_topics {
        topics.push(r.u32()?);
    }
    let f = r.u8()? as usize;
    let l = r.u8()?;
    // L > 56 would overflow the 64-bit unpacking accumulator below; the
    // protocol's sketches are 8-32 bits, so reject outliers as invalid.
    if f == 0 || !(1..=56).contains(&l) {
        return Err(CodecError::InvalidField("sketch shape"));
    }
    let packed = r.take((f * l as usize).div_ceil(8))?;
    let mut bitmaps = Vec::with_capacity(f);
    let mut acc: u64 = 0;
    let mut acc_bits: u32 = 0;
    let mut byte_iter = packed.iter();
    let mask = if l == 64 { u64::MAX } else { (1u64 << l) - 1 };
    for _ in 0..f {
        while acc_bits < l as u32 {
            acc |= (*byte_iter.next().expect("sized above") as u64) << acc_bits;
            acc_bits += 8;
        }
        bitmaps.push(acc & mask);
        acc >>= l;
        acc_bits -= l as u32;
    }
    let family_seed = r.u64()?;
    let payload_bytes = r.u32()? as usize;
    let _content = r.take(payload_bytes)?;
    let flood = if flags & 1 != 0 {
        Some(FloodInfo {
            wave: r.u32()?,
            radius: r.f64()?,
        })
    } else {
        None
    };

    // Rebuild the ad through the normal constructor (validations), then
    // restore the wire state.
    let params = GossipParams {
        sketch_f: f,
        sketch_l: l,
        sketch_seed: family_seed,
        ..GossipParams::paper()
    };
    let mut ad = Advertisement::new(
        AdId::new(issuer, seq),
        issue_pos,
        issue_time,
        initial_radius,
        initial_duration,
        topics,
        payload_bytes,
        &params,
    );
    ad.radius = radius;
    ad.duration = duration;
    ad.sketches = FmBundle::from_parts(
        family_seed,
        bitmaps
            .into_iter()
            .map(|bits| FmSketch::from_bits(bits, l))
            .collect(),
    );
    Ok(AdMessage { ad, flood })
}

/// Encode a message as a checked link-layer frame: the [`encode`] body
/// followed by a little-endian CRC-32 trailer over it.
///
/// The frame check sequence is a *link-layer* concern, so it rides
/// outside [`message_encoded_len`] — traffic accounting (and with it the
/// calibrated airtime/collision thresholds) counts message bodies, the
/// same way byte counts conventionally exclude the 802.11 FCS.
pub fn encode_frame(msg: &AdMessage) -> Vec<u8> {
    let mut buf = encode_with_spare(msg, FRAME_CRC_BYTES);
    let crc = crc32(&buf);
    buf.extend_from_slice(&crc.to_le_bytes());
    buf
}

/// Decode a checked frame produced by [`encode_frame`]: verify the CRC-32
/// trailer, then decode the body.
///
/// Any corruption of body or trailer surfaces as a typed error — never a
/// panic — so a receiver can drop the frame and account for it.
pub fn decode_frame(bytes: &[u8]) -> Result<AdMessage, CodecError> {
    if bytes.len() < FRAME_CRC_BYTES {
        return Err(CodecError::Truncated {
            needed: FRAME_CRC_BYTES,
            have: bytes.len(),
        });
    }
    let (body, trailer) = bytes.split_at(bytes.len() - FRAME_CRC_BYTES);
    let found = u32::from_le_bytes(trailer.try_into().unwrap());
    let expected = crc32(body);
    if found != expected {
        return Err(CodecError::ChecksumMismatch { expected, found });
    }
    decode(body)
}

/// Exact encoded size of an advertisement in a gossip message,
/// without allocating.
pub fn ad_encoded_len(ad: &Advertisement) -> usize {
    let fixed = 2 + 1          // magic + flags
        + 8                    // AdId
        + 16                   // issue_pos
        + 8                    // issue_time
        + 8 + 8                // initial radius + duration
        + 8 + 8; // current radius + duration
    let topics = 2 + 4 * ad.topics.len();
    let sketches = 2 + ad.sketches.size_bits().div_ceil(8) + 8;
    let payload = 4 + ad.payload_bytes;
    fixed + topics + sketches + payload
}

/// Exact encoded size of a full message.
pub fn message_encoded_len(msg: &AdMessage) -> usize {
    ad_encoded_len(&msg.ad) + if msg.flood.is_some() { 12 } else { 0 }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::interest::UserProfile;
    use crate::rank;

    fn sample_ad() -> Advertisement {
        let params = GossipParams::paper();
        let mut ad = Advertisement::new(
            AdId::new(PeerId(3), 7),
            Point::new(2500.0, 1234.5),
            SimTime::from_secs(10.0),
            1000.0,
            SimDuration::from_secs(1800.0),
            vec![2, 9, 4],
            200,
            &params,
        );
        // Populate sketches and enlargement so non-default state survives.
        for uid in 0..25u64 {
            rank::process_interest(&mut ad, &UserProfile::new(uid, vec![2]), &params);
        }
        ad
    }

    #[test]
    fn gossip_roundtrip() {
        let msg = AdMessage::gossip(sample_ad());
        let bytes = encode(&msg);
        let back = decode(&bytes).expect("decode");
        assert_eq!(back, msg);
    }

    #[test]
    fn flood_roundtrip() {
        let msg = AdMessage::flood(sample_ad(), 42, 987.5);
        let back = decode(&encode(&msg)).expect("decode");
        assert_eq!(back, msg);
        assert_eq!(back.flood.unwrap().wave, 42);
    }

    #[test]
    fn bad_magic_rejected() {
        let mut bytes = encode(&AdMessage::gossip(sample_ad()));
        bytes[0] ^= 0xFF;
        assert!(matches!(decode(&bytes), Err(CodecError::BadMagic(_))));
    }

    #[test]
    fn every_truncation_is_detected() {
        let bytes = encode(&AdMessage::flood(sample_ad(), 1, 500.0));
        for cut in 0..bytes.len() {
            let r = decode(&bytes[..cut]);
            assert!(
                matches!(r, Err(CodecError::Truncated { .. })),
                "cut at {cut} gave {r:?}"
            );
        }
        assert!(decode(&bytes).is_ok());
    }

    #[test]
    fn corrupted_radius_rejected() {
        let msg = AdMessage::gossip(sample_ad());
        let mut bytes = encode(&msg);
        // radius field: 2 magic + 1 flags + 8 id + 16 pos + 8 time +
        // 8 r0 + 8 d0 = offset 51.
        for b in &mut bytes[51..59] {
            *b = 0;
        }
        assert_eq!(decode(&bytes), Err(CodecError::InvalidField("radius")));
    }

    #[test]
    fn encoded_size_is_exact() {
        for msg in [
            AdMessage::gossip(sample_ad()),
            AdMessage::flood(sample_ad(), 3, 800.0),
        ] {
            assert_eq!(encode(&msg).len(), message_encoded_len(&msg));
            // Traffic accounting delegates here, so it is exact too.
            assert_eq!(msg.bytes(), message_encoded_len(&msg));
        }
    }

    #[test]
    fn crc32_matches_ieee_check_value() {
        // The classic CRC-32/IEEE check vector.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
    }

    #[test]
    fn frame_roundtrip_and_size() {
        let msg = AdMessage::flood(sample_ad(), 2, 700.0);
        let frame = encode_frame(&msg);
        assert_eq!(frame.len(), message_encoded_len(&msg) + FRAME_CRC_BYTES);
        assert_eq!(decode_frame(&frame).expect("decode"), msg);
    }

    #[test]
    fn every_single_bit_flip_is_caught() {
        let msg = AdMessage::gossip(sample_ad());
        let frame = encode_frame(&msg);
        for byte in 0..frame.len() {
            for bit in 0..8 {
                let mut dirty = frame.clone();
                dirty[byte] ^= 1 << bit;
                let r = decode_frame(&dirty);
                assert!(
                    matches!(r, Err(CodecError::ChecksumMismatch { .. })),
                    "flip at byte {byte} bit {bit} gave {r:?}"
                );
            }
        }
    }

    #[test]
    fn truncated_frame_is_typed_not_panic() {
        let frame = encode_frame(&AdMessage::gossip(sample_ad()));
        for cut in 0..frame.len() {
            assert!(decode_frame(&frame[..cut]).is_err(), "cut at {cut}");
        }
    }

    #[test]
    fn error_display() {
        assert_eq!(
            CodecError::Truncated {
                needed: 10,
                have: 3
            }
            .to_string(),
            "truncated message: needed 10 bytes, have 3"
        );
        assert_eq!(CodecError::BadMagic(0xBEEF).to_string(), "bad magic 0xBEEF");
        assert_eq!(
            CodecError::InvalidField("x").to_string(),
            "invalid field: x"
        );
        assert_eq!(
            CodecError::ChecksumMismatch {
                expected: 0xDEADBEEF,
                found: 0
            }
            .to_string(),
            "frame checksum mismatch: expected 0xDEADBEEF, found 0x00000000"
        );
    }
}

#[cfg(test)]
mod prop_tests {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        /// Arbitrary (valid) messages round-trip exactly.
        #[test]
        fn roundtrip(
            issuer in any::<u32>(),
            seq in any::<u32>(),
            x in 0.0..10_000.0f64,
            y in 0.0..10_000.0f64,
            t_us in 0u64..10_u64.pow(12),
            r0 in 1.0..5000.0f64,
            d0_us in 1u64..10_u64.pow(12),
            topics in proptest::collection::vec(any::<u32>(), 0..10),
            payload in 0usize..512,
            users in proptest::collection::vec(any::<u64>(), 0..30),
            flood in proptest::option::of((any::<u32>(), 1.0..5000.0f64)),
        ) {
            let params = GossipParams::paper();
            let mut ad = Advertisement::new(
                AdId::new(PeerId(issuer), seq),
                Point::new(x, y),
                SimTime::from_micros(t_us),
                r0,
                SimDuration::from_micros(d0_us),
                topics,
                payload,
                &params,
            );
            for u in users {
                ad.sketches.insert(u);
            }
            let msg = match flood {
                Some((wave, fr)) => AdMessage::flood(ad, wave, fr),
                None => AdMessage::gossip(ad),
            };
            let back = decode(&encode(&msg)).expect("decode");
            prop_assert_eq!(back, msg);
        }

        /// Random garbage never panics the decoder.
        #[test]
        fn garbage_never_panics(bytes in proptest::collection::vec(any::<u8>(), 0..256)) {
            let _ = decode(&bytes);
        }
    }
}
