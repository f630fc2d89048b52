//! Wire protocol of the simulated hierarchy.
//!
//! Every message is a [`Frame`]: a 22-byte header (magic, version,
//! sequence number, sender id, payload tag, flags, per-link transport
//! sequence number, CRC-32 of the whole frame) followed by a typed
//! payload. The magic/version pair identifies DDNN peers on real sockets:
//! bytes from a foreign protocol (or an incompatible DDNN build) are
//! rejected with a typed [`RuntimeError::Corrupt`] before any field is
//! trusted, and the CRC turns bit flips and truncation into the same
//! typed error instead of a silent mis-decode. Payload encodings are
//! exactly the units the paper's Eq. 1 counts: class scores as 4-byte
//! little-endian floats, binary feature maps bit-packed at 1 bit per
//! activation, raw images as 1 byte per pixel channel (the 3072-byte
//! baseline of §IV-H).

use crate::error::{Result, RuntimeError};
use ddnn_core::SignMaps;
use ddnn_tensor::cursor::{Cursor, ShortRead};
use ddnn_tensor::{bits, Tensor};
use std::sync::Arc;

/// Identifies a node in the hierarchy.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum NodeId {
    /// End device `d` (0-based).
    Device(u8),
    /// The gateway hosting the local aggregator.
    Gateway,
    /// The edge (fog) tier.
    Edge,
    /// The cloud.
    Cloud,
    /// The experiment orchestrator (source of sensor input, sink of
    /// verdicts).
    Orchestrator,
    /// The `k`-th aggregation tier of a custom topology chain (beyond the
    /// paper's fixed edge/cloud pair) — built by the runtime's
    /// `HierarchyBuilder`.
    Tier(u8),
}

impl NodeId {
    pub(crate) fn encode(self) -> u16 {
        match self {
            NodeId::Device(d) => u16::from(d),
            NodeId::Gateway => 0x100,
            NodeId::Edge => 0x101,
            NodeId::Cloud => 0x102,
            NodeId::Orchestrator => 0x103,
            NodeId::Tier(k) => 0x200 + u16::from(k),
        }
    }

    fn decode(v: u16) -> Result<Self> {
        match v {
            0x100 => Ok(NodeId::Gateway),
            0x101 => Ok(NodeId::Edge),
            0x102 => Ok(NodeId::Cloud),
            0x103 => Ok(NodeId::Orchestrator),
            d if d < 0x100 => Ok(NodeId::Device(d as u8)),
            t if (0x200..=0x2FF).contains(&t) => Ok(NodeId::Tier((t - 0x200) as u8)),
            other => Err(RuntimeError::Protocol { reason: format!("unknown node id {other}") }),
        }
    }
}

impl std::fmt::Display for NodeId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            NodeId::Device(d) => write!(f, "device{d}"),
            NodeId::Gateway => write!(f, "gateway"),
            NodeId::Edge => write!(f, "edge"),
            NodeId::Cloud => write!(f, "cloud"),
            NodeId::Orchestrator => write!(f, "orchestrator"),
            NodeId::Tier(k) => write!(f, "tier{k}"),
        }
    }
}

/// Frame payloads.
#[derive(Debug, Clone, PartialEq)]
pub enum Payload {
    /// Sensor input pushed to a device by the orchestrator (not a network
    /// transfer; its bytes are not counted against any link).
    Capture {
        /// The rank-3 `(channels, height, width)` view; the wire encoding
        /// carries the shape so the geometry is the model's, not a
        /// protocol constant.
        view: Tensor,
    },
    /// Per-class float scores a device sends to the local aggregator — the
    /// `4·|C|` term of Eq. 1.
    Scores {
        /// Class scores, one `f32` per class.
        scores: Vec<f32>,
    },
    /// Gateway's instruction to offload the current sample upward.
    OffloadRequest,
    /// A bit-packed binary feature map — the `f·o/8` term of Eq. 1.
    Features {
        /// Channel count of the map.
        channels: u16,
        /// Spatial height.
        height: u16,
        /// Spatial width.
        width: u16,
        /// Bit-packed signs, row-major, MSB first.
        bits: Arc<[u8]>,
    },
    /// A raw 32×32 RGB image quantized to 1 byte/channel — what the
    /// cloud-offload baseline transmits (3072 bytes, §IV-H).
    RawImage {
        /// Quantized pixels, `(3, 32, 32)` row-major.
        pixels: Arc<[u8]>,
    },
    /// A final classification decision.
    Verdict {
        /// Predicted class.
        prediction: u16,
        /// Exit tier: 0 = local, 1 = edge, 2 = cloud.
        exit_tier: u8,
    },
    /// Orderly shutdown of a node at end of experiment.
    Shutdown,
    /// The orchestrator's heartbeat, piggybacked on the regular links, and
    /// the only way it steers a node: `seq` carries the ping round, the
    /// fields the control plane's current state. A node applies a newer
    /// `epoch` (rebuilding its routing from `live`) and its `down` bit on
    /// receipt, and answers with a [`Payload::Pong`] echoing the round —
    /// unless the ping finds it down and leaves it down. The fields are
    /// control, not payload: they count as header bytes, so heartbeat
    /// traffic never perturbs the Eq. 1 accounting.
    Ping {
        /// The topology epoch the orchestrator has published.
        epoch: u64,
        /// That epoch's stale floor: samples below it are discarded.
        floor: u64,
        /// Liveness per control-plane directory index (devices, gateway,
        /// tiers) — what the routing table is recomputed from.
        live: Vec<bool>,
        /// The addressee is scheduled down: it discards everything but
        /// pings and shutdown until a ping clears the bit.
        down: bool,
    },
    /// A node's answer to a [`Payload::Ping`] of the same `seq`.
    Pong,
}

impl Payload {
    fn tag(&self) -> u8 {
        match self {
            Payload::Capture { .. } => 0,
            Payload::Scores { .. } => 1,
            Payload::OffloadRequest => 2,
            Payload::Features { .. } => 3,
            Payload::RawImage { .. } => 4,
            Payload::Verdict { .. } => 5,
            Payload::Shutdown => 6,
            Payload::Ping { .. } => 7,
            Payload::Pong => 8,
        }
    }
}

/// A protocol frame: header + payload.
#[derive(Debug, Clone, PartialEq)]
pub struct Frame {
    /// Sample sequence number (one inference per sequence number).
    pub seq: u64,
    /// Sending node.
    pub from: NodeId,
    /// Typed payload.
    pub payload: Payload,
}

/// First byte of every DDNN frame. A peer that is not speaking the DDNN
/// protocol fails this check on its first byte.
pub const FRAME_MAGIC: u8 = 0xDD;

/// Wire-protocol version carried in every frame header. Bumped on any
/// incompatible framing change, so mismatched builds reject each other's
/// traffic as [`RuntimeError::Corrupt`] instead of decoding garbage.
pub const FRAME_VERSION: u8 = 2;

/// Bytes of the frame header: magic (u8), version (u8), seq (u64), from
/// (u16), tag (u8), flags (u8), per-link transport sequence number (u32)
/// and CRC-32 (u32).
pub const HEADER_BYTES: usize = 1 + 1 + 8 + 2 + 1 + 1 + 4 + 4;

/// Header flag: this frame is an ARQ retransmission (its transport
/// sequence number was transmitted before).
pub const FLAG_RETRANSMIT: u8 = 0x01;

/// All flag bits the header defines; anything else is corruption.
const FLAG_MASK: u8 = FLAG_RETRANSMIT;

/// Byte offset of the flags byte: past magic, version, seq, from and tag.
const FLAGS_OFFSET: usize = 1 + 1 + 8 + 2 + 1;

/// Byte offset of the CRC-32 field: the header's last four bytes.
const CRC_OFFSET: usize = HEADER_BYTES - 4;

/// CRC-32 (IEEE 802.3, reflected polynomial `0xEDB88320`) slice-by-8
/// lookup tables, built at compile time. `[0]` is the classic byte table;
/// `[k][b]` is the state byte `b` leaves after `k` further zero bytes, so
/// eight input bytes fold into the state in one step.
const CRC32_TABLES: [[u32; 256]; 8] = {
    let mut t = [[0u32; 256]; 8];
    let mut k = 0;
    while k < 8 {
        let mut i = 0;
        while i < 256 {
            // Eight more zero bits shifted through `[k - 1][i]`.
            let mut c = if k == 0 { i as u32 } else { t[k - 1][i] };
            let mut bit = 0;
            while bit < 8 {
                c = if c & 1 != 0 { 0xEDB8_8320 ^ (c >> 1) } else { c >> 1 };
                bit += 1;
            }
            t[k][i] = c;
            i += 1;
        }
        k += 1;
    }
    t
};

/// CRC-32 (IEEE) of `data` — the checksum every frame carries.
pub fn crc32(data: &[u8]) -> u32 {
    crc32_update(!0, data) ^ !0
}

/// Feeds one slice into a running CRC state (state is pre-inverted): the
/// carry-less-multiply fold when the CPU has one and the slice is long
/// enough to fill its four lanes, the slice-by-8 table otherwise.
fn crc32_update(state: u32, data: &[u8]) -> u32 {
    #[cfg(target_arch = "x86_64")]
    if data.len() >= clmul::MIN_LEN && clmul::available() {
        // SAFETY: `available` checked the CPU features `fold` is built for.
        return unsafe { clmul::fold(state, data) };
    }
    crc32_table(state, data)
}

/// The table path of [`crc32_update`]: eight bytes a step, then the
/// 0–7-byte tail one byte a step.
fn crc32_table(mut state: u32, data: &[u8]) -> u32 {
    let t = &CRC32_TABLES;
    let mut steps = data.chunks_exact(8);
    for c in &mut steps {
        let lo = state ^ u32::from_le_bytes([c[0], c[1], c[2], c[3]]);
        state = t[7][(lo & 0xFF) as usize]
            ^ t[6][(lo >> 8 & 0xFF) as usize]
            ^ t[5][(lo >> 16 & 0xFF) as usize]
            ^ t[4][(lo >> 24) as usize]
            ^ t[3][c[4] as usize]
            ^ t[2][c[5] as usize]
            ^ t[1][c[6] as usize]
            ^ t[0][c[7] as usize];
    }
    for &b in steps.remainder() {
        state = t[0][((state ^ u32::from(b)) & 0xFF) as usize] ^ (state >> 8);
    }
    state
}

/// The PCLMULQDQ fold for the reflected polynomial (Gopal et al., "Fast
/// CRC Computation for Generic Polynomials Using PCLMULQDQ Instruction",
/// Intel, 2009): four 128-bit lanes each fold 64 bytes per step (k1, k2),
/// merge into one lane (k3, k4), which folds the remaining whole 16-byte
/// blocks; 128 bits reduce to 64 (k4, k5), a Barrett reduction (P, μ)
/// leaves the 32-bit state, and the table takes the 0–15-byte tail.
#[cfg(target_arch = "x86_64")]
mod clmul {
    use std::arch::x86_64::*;

    /// Shortest slice the fold takes: two rounds of its four lanes.
    pub(super) const MIN_LEN: usize = 128;

    // `x^n mod P` for the fold distances as (high, low) lane pairs,
    // bit-reflected and shifted left by one: k2:k1 carries a lane 512
    // bits, k4:k3 128 bits, k5 reduces 96 bits to 64. Then μ:P, with
    // `μ = ⌊x^64 / P⌋`; each at most 33 bits.
    const K2_K1: (i64, i64) = (0x1_C6E4_1596, 0x1_5444_2BD4);
    const K4_K3: (i64, i64) = (0x0_CCAA_009E, 0x1_7519_97D0);
    const K5: i64 = 0x1_63CD_6124;
    const MU_P: (i64, i64) = (0x1_F701_1641, 0x1_DB71_0641);

    /// Whether this CPU runs [`fold`] (the detection result is cached).
    pub(super) fn available() -> bool {
        is_x86_feature_detected!("pclmulqdq") && is_x86_feature_detected!("sse4.1")
    }

    /// Folds `data` (at least [`MIN_LEN`] bytes) into a running CRC
    /// state, bit-identical to the table.
    ///
    /// # Safety
    ///
    /// The CPU must support `pclmulqdq` and `sse4.1` (see [`available`]).
    #[target_feature(enable = "pclmulqdq,sse4.1")]
    pub(super) unsafe fn fold(state: u32, data: &[u8]) -> u32 {
        debug_assert!(data.len() >= MIN_LEN);
        // `load` runs exactly `data.len() / 16` times below, and each call
        // reads one whole 16-byte chunk (an unaligned load).
        let mut blocks = data.chunks_exact(16);
        let mut load = || _mm_loadu_si128(blocks.next().expect("a block per load").as_ptr().cast());
        let mut x = [load(), load(), load(), load()];
        x[0] = _mm_xor_si128(x[0], _mm_cvtsi32_si128(state as i32));
        let k1k2 = _mm_set_epi64x(K2_K1.0, K2_K1.1);
        for _ in 1..data.len() / 64 {
            for lane in &mut x {
                *lane = fold_step(*lane, load(), k1k2);
            }
        }
        let k3k4 = _mm_set_epi64x(K4_K3.0, K4_K3.1);
        let mut acc = fold_step(fold_step(fold_step(x[0], x[1], k3k4), x[2], k3k4), x[3], k3k4);
        for _ in 0..data.len() % 64 / 16 {
            acc = fold_step(acc, load(), k3k4);
        }
        // 128 → 96 → 64 bits.
        let low32 = _mm_set_epi32(0, 0, 0, !0);
        let acc = _mm_xor_si128(_mm_clmulepi64_si128(acc, k3k4, 0x10), _mm_srli_si128(acc, 8));
        let acc = _mm_xor_si128(
            _mm_clmulepi64_si128(_mm_and_si128(acc, low32), _mm_set_epi64x(0, K5), 0x00),
            _mm_srli_si128(acc, 4),
        );
        // Barrett: the state is the upper half of R ^ (⌊R mod x^32⌋·μ mod x^32)·P.
        let pu = _mm_set_epi64x(MU_P.0, MU_P.1);
        let t1 = _mm_clmulepi64_si128(_mm_and_si128(acc, low32), pu, 0x10);
        let t2 = _mm_clmulepi64_si128(_mm_and_si128(t1, low32), pu, 0x00);
        let state = _mm_extract_epi32(_mm_xor_si128(acc, t2), 1) as u32;
        super::crc32_table(state, &data[data.len() / 16 * 16..])
    }

    /// One fold step: `a` carried 128 (or 512) bits forward onto `b`.
    #[inline]
    #[target_feature(enable = "pclmulqdq")]
    fn fold_step(a: __m128i, b: __m128i, k: __m128i) -> __m128i {
        let lo = _mm_clmulepi64_si128(a, k, 0x00);
        let hi = _mm_clmulepi64_si128(a, k, 0x11);
        _mm_xor_si128(b, _mm_xor_si128(lo, hi))
    }
}

/// Writes a frame's CRC-32 into its header field. The checksum covers
/// everything except the CRC field itself.
fn seal(buf: &mut [u8]) {
    let crc = crc32_parts(&buf[..CRC_OFFSET], &buf[HEADER_BYTES..]);
    buf[CRC_OFFSET..HEADER_BYTES].copy_from_slice(&crc.to_le_bytes());
}

/// Two-part CRC-32 over a frame's bytes either side of its CRC field.
fn crc32_parts(before: &[u8], after: &[u8]) -> u32 {
    crc32_update(crc32_update(!0, before), after) ^ !0
}

/// The [`FLAG_RETRANSMIT`] form of a frame's wire bytes — byte for byte
/// what `encode_checked(flags | FLAG_RETRANSMIT, tseq)` produces. ARQ
/// buffers a frame's primary encoding and derives this copy only when a
/// retransmission is actually due.
pub(crate) fn retransmit_form(primary: &[u8]) -> Arc<[u8]> {
    let mut buf = primary.to_vec();
    buf[FLAGS_OFFSET] |= FLAG_RETRANSMIT;
    seal(&mut buf);
    buf.into()
}

/// A decoded frame with its transport metadata.
#[derive(Debug, Clone, PartialEq)]
pub struct CheckedFrame {
    /// The application frame.
    pub frame: Frame,
    /// Header flags (e.g. [`FLAG_RETRANSMIT`]).
    pub flags: u8,
    /// Per-link transport sequence number; `0` means the sending link does
    /// not run ARQ (no dedup/ack tracking applies).
    pub tseq: u32,
}

impl Frame {
    /// Creates a frame.
    pub fn new(seq: u64, from: NodeId, payload: Payload) -> Self {
        Frame { seq, from, payload }
    }

    /// Whether this is an orderly-shutdown frame. Shutdown frames are
    /// exempt from fault injection so a chaotic run can always terminate.
    pub fn is_shutdown(&self) -> bool {
        matches!(self.payload, Payload::Shutdown)
    }

    /// Size of the encoded payload in bytes (excluding the header) — the
    /// quantity compared against the paper's Eq. 1.
    pub fn payload_bytes(&self) -> usize {
        match &self.payload {
            Payload::Capture { view } => 6 + 4 * view.len(),
            Payload::Scores { scores } => 4 * scores.len(),
            Payload::OffloadRequest | Payload::Shutdown | Payload::Ping { .. } | Payload::Pong => 0,
            Payload::Features { bits, .. } => 6 + bits.len(),
            Payload::RawImage { pixels } => pixels.len(),
            Payload::Verdict { .. } => 3,
        }
    }

    /// Encodes the frame with no transport metadata (`flags` and `tseq`
    /// zero): the bytes every link outside ARQ sends.
    pub fn encode(&self) -> Arc<[u8]> {
        self.encode_checked(0, 0)
    }

    /// Encodes the frame: magic, version, seq, sender and payload tag,
    /// then `flags`, the per-link transport sequence number and a CRC-32
    /// over the entire frame (header corruption is detected too), then
    /// the payload.
    pub fn encode_checked(&self, flags: u8, tseq: u32) -> Arc<[u8]> {
        let mut buf = Vec::with_capacity(HEADER_BYTES + self.payload_bytes() + 4);
        buf.extend_from_slice(&[FRAME_MAGIC, FRAME_VERSION]);
        buf.extend_from_slice(&self.seq.to_le_bytes());
        buf.extend_from_slice(&self.from.encode().to_le_bytes());
        buf.extend_from_slice(&[self.payload.tag(), flags]);
        buf.extend_from_slice(&tseq.to_le_bytes());
        buf.extend_from_slice(&[0; 4]); // CRC placeholder, sealed below
        self.encode_payload(&mut buf);
        seal(&mut buf);
        buf.into()
    }

    /// Appends the payload encoding.
    fn encode_payload(&self, buf: &mut Vec<u8>) {
        match &self.payload {
            Payload::Capture { view } => {
                for i in 0..3 {
                    let dim = view.dims().get(i).copied().unwrap_or(0) as u16;
                    buf.extend_from_slice(&dim.to_le_bytes());
                }
                buf.extend(view.data().iter().flat_map(|x| x.to_le_bytes()));
            }
            Payload::Scores { scores } => {
                buf.extend_from_slice(&(scores.len() as u32).to_le_bytes());
                buf.extend(scores.iter().flat_map(|s| s.to_le_bytes()));
            }
            Payload::OffloadRequest | Payload::Shutdown | Payload::Pong => {}
            Payload::Ping { epoch, floor, live, down } => {
                buf.extend_from_slice(&epoch.to_le_bytes());
                buf.extend_from_slice(&floor.to_le_bytes());
                buf.push(u8::from(*down));
                buf.extend_from_slice(&(live.len() as u16).to_le_bytes());
                for byte in live.chunks(8) {
                    buf.push(byte.iter().rev().fold(0, |b, &l| b << 1 | u8::from(l)));
                }
            }
            Payload::Features { channels, height, width, bits } => {
                buf.extend_from_slice(&channels.to_le_bytes());
                buf.extend_from_slice(&height.to_le_bytes());
                buf.extend_from_slice(&width.to_le_bytes());
                buf.extend_from_slice(&(bits.len() as u32).to_le_bytes());
                buf.extend_from_slice(bits);
            }
            Payload::RawImage { pixels } => {
                buf.extend_from_slice(&(pixels.len() as u32).to_le_bytes());
                buf.extend_from_slice(pixels);
            }
            Payload::Verdict { prediction, exit_tier } => {
                buf.extend_from_slice(&prediction.to_le_bytes());
                buf.push(*exit_tier);
            }
        }
    }

    /// Decodes a frame, dropping its transport metadata (see
    /// [`Frame::decode_checked`]).
    ///
    /// # Errors
    ///
    /// As [`Frame::decode_checked`].
    pub fn decode(buf: impl AsRef<[u8]>) -> Result<Frame> {
        Ok(Frame::decode_checked(buf)?.frame)
    }

    /// Decodes a frame, checking magic and version first, then the CRC-32
    /// and the flags byte, before any other field is trusted. Every
    /// payload length field is bounded against the bytes present before
    /// anything is allocated, and the payload must end exactly where the
    /// buffer does.
    ///
    /// # Errors
    ///
    /// Returns [`RuntimeError::Corrupt`] when the frame is shorter than a
    /// header, has a foreign magic or version, the CRC does not match (bit
    /// flips, truncation), unknown flag bits are set, a length field
    /// points past the buffer, or bytes are left over after the payload;
    /// [`RuntimeError::Protocol`] only for a frame that passes its
    /// integrity check yet still fails to parse (unknown tags or node ids:
    /// a sender bug, not wire damage).
    pub fn decode_checked(buf: impl AsRef<[u8]>) -> Result<CheckedFrame> {
        let buf = buf.as_ref();
        // Magic/version are checked before the CRC: a foreign peer's bytes
        // should be rejected as "not DDNN", not as a checksum accident.
        check_head(buf)?;
        let computed = crc32_parts(&buf[..CRC_OFFSET], &buf[HEADER_BYTES..]);
        let mut buf = Cursor::new(&buf[2..]);
        let (seq, from_code, tag) = (buf.u64()?, buf.u16()?, buf.u8()?);
        let (flags, tseq, stored) = (buf.u8()?, buf.u32()?, buf.u32()?);
        if stored != computed {
            return Err(RuntimeError::Corrupt {
                reason: format!("crc mismatch: stored {stored:#010x}, computed {computed:#010x}"),
            });
        }
        if flags & !FLAG_MASK != 0 {
            return Err(RuntimeError::Corrupt { reason: format!("unknown flags {flags:#04x}") });
        }
        let from = NodeId::decode(from_code)?;
        let payload = decode_payload(tag, &mut buf)?;
        Ok(CheckedFrame { frame: Frame { seq, from, payload }, flags, tseq })
    }
}

/// Validates a frame's length and the magic/version pair leading it.
/// Checked before any other field is trusted, so bytes from a non-DDNN
/// peer (or an incompatible DDNN build) surface as a typed
/// [`RuntimeError::Corrupt`] instead of being mis-decoded.
fn check_head(buf: &[u8]) -> Result<()> {
    let reason = if buf.len() < HEADER_BYTES {
        format!("{} bytes is shorter than a frame header", buf.len())
    } else if buf[0] != FRAME_MAGIC {
        format!("not a DDNN frame: magic {:#04x}, expected {FRAME_MAGIC:#04x}", buf[0])
    } else if buf[1] != FRAME_VERSION {
        format!("version mismatch: peer speaks v{}, this build speaks v{FRAME_VERSION}", buf[1])
    } else {
        return Ok(());
    };
    Err(RuntimeError::Corrupt { reason })
}

/// A short read in a payload decoder is classified as
/// [`RuntimeError::Corrupt`]: a length field pointing past the end of the
/// buffer is wire damage (truncation, or a damaged length), and inboxes
/// discard such frames instead of failing the node.
impl From<ShortRead> for RuntimeError {
    fn from(e: ShortRead) -> Self {
        RuntimeError::Corrupt { reason: format!("truncated frame: {e}") }
    }
}

/// Decodes a payload; `buf` is positioned just past the header. Length fields are untrusted: the cursor bounds
/// each against the bytes present before any allocation, so the largest
/// possible allocation is the size of the received buffer itself. A
/// payload must use the buffer up exactly: leftover bytes mean its header
/// was truncated or mis-declared.
fn decode_payload(tag: u8, buf: &mut Cursor<'_>) -> Result<Payload> {
    let payload = match tag {
        0 => {
            let (c, h, w) = (buf.u16()? as usize, buf.u16()? as usize, buf.u16()? as usize);
            let n = c.checked_mul(h).and_then(|n| n.checked_mul(w)).ok_or_else(|| {
                RuntimeError::Corrupt { reason: format!("capture shape {c}x{h}x{w} overflows") }
            })?;
            let view = Tensor::from_vec(buf.f32s(n)?, [c, h, w]).map_err(|e| {
                RuntimeError::Protocol { reason: format!("capture payload shape: {e}") }
            })?;
            Payload::Capture { view }
        }
        1 => {
            let n = buf.u32()? as usize;
            Payload::Scores { scores: buf.f32s(n)? }
        }
        2 => Payload::OffloadRequest,
        3 => {
            let (channels, height, width) = (buf.u16()?, buf.u16()?, buf.u16()?);
            let len = buf.u32()? as usize;
            Payload::Features { channels, height, width, bits: buf.take(len)?.into() }
        }
        4 => {
            let len = buf.u32()? as usize;
            Payload::RawImage { pixels: buf.take(len)?.into() }
        }
        5 => Payload::Verdict { prediction: buf.u16()?, exit_tier: buf.u8()? },
        6 => Payload::Shutdown,
        7 => {
            let (epoch, floor, down) = (buf.u64()?, buf.u64()?, buf.u8()? != 0);
            let n = buf.u16()? as usize;
            let bits = buf.take(n.div_ceil(8))?;
            let live = (0..n).map(|i| bits[i / 8] >> (i % 8) & 1 == 1).collect();
            Payload::Ping { epoch, floor, live, down }
        }
        8 => Payload::Pong,
        other => {
            return Err(RuntimeError::Protocol { reason: format!("unknown payload tag {other}") })
        }
    };
    match buf.remaining() {
        0 => Ok(payload),
        n => {
            Err(RuntimeError::Corrupt { reason: format!("{n} bytes left over after the payload") })
        }
    }
}

/// Packs a ±1 feature map tensor `(c, h, w)` into a [`Payload::Features`].
///
/// # Errors
///
/// Returns an error if the map is not rank 3 or a dimension is zero or
/// exceeds the wire's `u16`.
pub fn features_payload(map: &Tensor) -> Result<Payload> {
    let &[c, h, w] = map.dims() else {
        return Err(RuntimeError::Protocol {
            reason: format!("feature map must be rank 3, got {}", map.rank()),
        });
    };
    features_of(&SignMaps::new([c, h, w], vec![bits::pack_signs(map)])?)
}

/// The [`Payload::Features`] of one packed map, whose bits already are
/// the wire layout.
///
/// # Errors
///
/// Returns a protocol error unless `map` holds exactly one sample whose
/// dimensions fit the wire's `u16`.
pub(crate) fn features_of(map: &SignMaps) -> Result<Payload> {
    let [channels, height, width] = map.dims().map(|d| u16::try_from(d).ok());
    match (channels.zip(height).zip(width), map.samples()) {
        (Some(((channels, height), width)), [bits]) => {
            Ok(Payload::Features { channels, height, width, bits: bits.clone() })
        }
        _ => Err(RuntimeError::Protocol {
            reason: "a features payload carries one map of at most u16::MAX a side".to_string(),
        }),
    }
}

/// Unpacks a [`Payload::Features`] back into a ±1 tensor.
///
/// # Errors
///
/// Returns an error on inconsistent dimensions.
pub fn features_tensor(channels: u16, height: u16, width: u16, packed: &[u8]) -> Result<Tensor> {
    bits::unpack_signs(packed, [channels as usize, height as usize, width as usize])
        .map_err(RuntimeError::from)
}

/// Quantizes a float image in `[0, 1]` to 1 byte per channel pixel — the
/// raw-offload baseline's wire format.
pub fn quantize_image(view: &Tensor) -> Arc<[u8]> {
    view.data().iter().map(|&x| (x.clamp(0.0, 1.0) * 255.0).round() as u8).collect()
}

/// Dequantizes a 1-byte-per-channel image back to floats in `[0, 1]`,
/// shaped to the model's `(channels, height, width)` view geometry.
///
/// # Errors
///
/// Returns an error if the byte count is not a whole `dims` image.
pub fn dequantize_image(pixels: &[u8], dims: [usize; 3]) -> Result<Tensor> {
    let [c, h, w] = dims;
    if pixels.len() != c * h * w {
        return Err(RuntimeError::Protocol {
            reason: format!("raw image must be {} bytes, got {}", c * h * w, pixels.len()),
        });
    }
    let data: Vec<f32> = pixels.iter().map(|&b| f32::from(b) / 255.0).collect();
    Tensor::from_vec(data, dims).map_err(RuntimeError::from)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn node_id_round_trip() {
        for id in [
            NodeId::Device(0),
            NodeId::Device(5),
            NodeId::Gateway,
            NodeId::Edge,
            NodeId::Cloud,
            NodeId::Orchestrator,
            NodeId::Tier(0),
            NodeId::Tier(7),
        ] {
            assert_eq!(NodeId::decode(id.encode()).unwrap(), id);
        }
        assert!(NodeId::decode(0x400).is_err());
        assert_eq!(NodeId::Tier(3).to_string(), "tier3");
    }

    #[test]
    fn frame_round_trips() {
        let frames = vec![
            Frame::new(1, NodeId::Device(2), Payload::Scores { scores: vec![0.5, -1.0, 2.5] }),
            Frame::new(2, NodeId::Gateway, Payload::OffloadRequest),
            Frame::new(3, NodeId::Cloud, Payload::Verdict { prediction: 2, exit_tier: 2 }),
            Frame::new(4, NodeId::Orchestrator, Payload::Shutdown),
            Frame::new(5, NodeId::Orchestrator, ping(9)),
            Frame::new(5, NodeId::Tier(1), Payload::Pong),
        ];
        for f in frames {
            let decoded = Frame::decode(f.encode()).unwrap();
            assert_eq!(decoded, f);
        }
    }

    /// A ping over a `nodes`-entry directory with an irregular live mask.
    fn ping(nodes: usize) -> Payload {
        let live = (0..nodes).map(|i| i % 3 != 1).collect();
        Payload::Ping { epoch: 7, floor: 41, live, down: true }
    }

    #[test]
    fn heartbeat_frames_carry_no_payload_bytes() {
        // Pings ride the regular links; their control fields count as
        // header bytes, so heartbeat traffic never perturbs the Eq. 1
        // payload accounting.
        for p in [ping(0), ping(5), ping(17), Payload::Pong] {
            let f = Frame::new(9, NodeId::Gateway, p);
            assert_eq!(f.payload_bytes(), 0);
            assert_eq!(Frame::decode(f.encode()).unwrap(), f);
            let decoded = Frame::decode_checked(f.encode_checked(0, 3)).unwrap();
            assert_eq!(decoded.frame, f);
        }
    }

    #[test]
    fn capture_frame_preserves_non_square_view_shape() {
        // The capture encoding carries the view geometry on the wire, so a
        // non-CIFAR model round-trips its own shape.
        let view = Tensor::from_fn([2, 8, 4], |i| i as f32 * 0.25);
        let f = Frame::new(5, NodeId::Orchestrator, Payload::Capture { view: view.clone() });
        let decoded = Frame::decode(f.encode()).unwrap();
        let Payload::Capture { view: back } = decoded.payload else {
            panic!("wrong payload type");
        };
        assert_eq!(back, view);
    }

    #[test]
    fn features_frame_round_trips() {
        let mut rng = ddnn_tensor::rng::rng_from_seed(0);
        let map = Tensor::rand_signs([4, 16, 16], &mut rng);
        let payload = features_payload(&map).unwrap();
        let f = Frame::new(9, NodeId::Device(0), payload);
        let decoded = Frame::decode(f.encode()).unwrap();
        if let Payload::Features { channels, height, width, bits } = decoded.payload {
            let back = features_tensor(channels, height, width, &bits).unwrap();
            assert_eq!(back, map);
        } else {
            panic!("wrong payload type");
        }
    }

    #[test]
    fn features_payload_rejects_dimensions_past_u16() {
        let map = Tensor::ones([1, 1, usize::from(u16::MAX) + 1]);
        let err = features_payload(&map).unwrap_err();
        assert!(matches!(err, RuntimeError::Protocol { .. }), "{err}");
        let wide = SignMaps::pack(&Tensor::ones([1, 1, 1, usize::from(u16::MAX) + 1])).unwrap();
        assert!(matches!(features_of(&wide), Err(RuntimeError::Protocol { .. })));
        assert!(features_payload(&Tensor::ones([1, 1, usize::from(u16::MAX)])).is_ok());
    }

    #[test]
    fn scores_payload_matches_eq1_first_term() {
        // 3 classes -> 12 bytes, Eq. 1's 4·|C| term.
        let f = Frame::new(0, NodeId::Device(0), Payload::Scores { scores: vec![0.0; 3] });
        assert_eq!(f.payload_bytes(), 12);
    }

    #[test]
    fn features_payload_matches_eq1_second_term() {
        // f=4 filters of 16x16 bits -> 128 bytes + 6 bytes shape.
        let map = Tensor::ones([4, 16, 16]);
        let f = Frame::new(0, NodeId::Device(0), features_payload(&map).unwrap());
        assert_eq!(f.payload_bytes(), 134);
    }

    #[test]
    fn raw_image_is_3072_bytes() {
        let img = Tensor::full([3, 32, 32], 0.25);
        let f =
            Frame::new(0, NodeId::Device(0), Payload::RawImage { pixels: quantize_image(&img) });
        assert_eq!(f.payload_bytes(), 3072);
    }

    #[test]
    fn quantize_dequantize_round_trip_within_half_step() {
        let img = Tensor::from_fn([3, 32, 32], |i| (i % 256) as f32 / 255.0);
        let back = dequantize_image(&quantize_image(&img), [3, 32, 32]).unwrap();
        assert!(img.max_abs_diff(&back).unwrap() <= 0.5 / 255.0 + 1e-6);
        assert!(dequantize_image(&[0u8; 100], [3, 32, 32]).is_err());
    }

    #[test]
    fn decode_rejects_garbage() {
        assert!(Frame::decode([1u8, 2, 3]).is_err());
        let mut good = Frame::new(0, NodeId::Cloud, Payload::OffloadRequest).encode().to_vec();
        good[12] = 99; // unknown tag
        seal(&mut good);
        assert!(Frame::decode(good).is_err());
    }

    #[test]
    fn foreign_magic_and_version_are_rejected_as_corrupt() {
        // A peer that is not speaking DDNN (wrong magic) or runs an
        // incompatible build (wrong version) is rejected before any field
        // is trusted, the CRC included.
        let f = Frame::new(1, NodeId::Gateway, Payload::OffloadRequest);
        for (pos, note) in [(0usize, "DDNN"), (1, "version")] {
            let mut wire = f.encode_checked(0, 7).to_vec();
            wire[pos] ^= 0xFF;
            let err = Frame::decode_checked(wire).unwrap_err();
            assert!(matches!(err, RuntimeError::Corrupt { .. }), "{note}: {err}");
            // The version error names both versions so the operator can
            // tell a build mismatch from line noise.
            assert!(err.to_string().contains(note), "{err}");
        }
    }

    #[test]
    fn truncated_features_rejected() {
        let map = Tensor::ones([2, 4, 4]);
        let f = Frame::new(0, NodeId::Device(1), features_payload(&map).unwrap());
        let enc = f.encode();
        let cut = &enc[..enc.len() - 2];
        assert!(Frame::decode(cut).is_err());
    }

    /// Reseals `wire` over its damaged bytes, as a sender that meant
    /// them would have, and asserts that the payload decoder's own bounds
    /// refuse it as [`RuntimeError::Corrupt`] — past the CRC check.
    fn corrupt_past_the_crc(mut wire: Vec<u8>) -> RuntimeError {
        seal(&mut wire);
        let err = Frame::decode(wire).unwrap_err();
        assert!(matches!(err, RuntimeError::Corrupt { .. }), "{err}");
        assert!(!err.to_string().contains("crc"), "caught by the CRC, not the bounds: {err}");
        err
    }

    #[test]
    fn legacy_truncation_is_classified_as_corrupt() {
        // Regression: truncation used to surface as Protocol, which an
        // inbox would propagate as a node failure; Corrupt is
        // counted and discarded like any other damaged frame.
        let f = Frame::new(3, NodeId::Device(0), Payload::Scores { scores: vec![1.0, 2.0, 3.0] });
        let wire = f.encode();
        let err = Frame::decode(&wire[..HEADER_BYTES - 1]).unwrap_err();
        assert!(matches!(err, RuntimeError::Corrupt { .. }), "{err}");
        for cut in [HEADER_BYTES + 2, wire.len() - 1] {
            let err = corrupt_past_the_crc(wire[..cut].to_vec());
            assert!(err.to_string().contains("truncated"), "cut {cut}: {err}");
        }
        // An unknown tag on an intact frame stays a Protocol error.
        let mut bad_tag = wire.to_vec();
        bad_tag[12] = 99;
        seal(&mut bad_tag);
        assert!(matches!(Frame::decode(bad_tag).unwrap_err(), RuntimeError::Protocol { .. }));
    }

    #[test]
    fn legacy_length_fields_are_bounded_before_allocation() {
        // Regression: a damaged length field claiming u32::MAX elements
        // used to drive `(0..n).collect()` toward a 16 GiB allocation.
        // Scores frame whose length field claims u32::MAX floats:
        let mut wire = Frame::new(0, NodeId::Device(0), Payload::Scores { scores: vec![1.0] })
            .encode()
            .to_vec();
        wire[HEADER_BYTES..HEADER_BYTES + 4].copy_from_slice(&u32::MAX.to_le_bytes());
        corrupt_past_the_crc(wire);
        // Capture frame whose shape fields multiply past usize on 32-bit
        // targets and well past the buffer on 64-bit ones:
        let view = Tensor::from_fn([1, 1, 1], |_| 0.5);
        let mut wire =
            Frame::new(0, NodeId::Orchestrator, Payload::Capture { view }).encode().to_vec();
        for field in 0..3 {
            let at = HEADER_BYTES + 2 * field;
            wire[at..at + 2].copy_from_slice(&u16::MAX.to_le_bytes());
        }
        corrupt_past_the_crc(wire);
        // RawImage with an oversized length field:
        let mut wire =
            Frame::new(0, NodeId::Device(0), Payload::RawImage { pixels: Arc::from([7, 7]) })
                .encode()
                .to_vec();
        wire[HEADER_BYTES..HEADER_BYTES + 4].copy_from_slice(&u32::MAX.to_le_bytes());
        corrupt_past_the_crc(wire);
    }

    #[test]
    fn checked_decode_rejects_truncation() {
        let f = Frame::new(1, NodeId::Device(0), Payload::Scores { scores: vec![1.0, 2.0] });
        let wire = f.encode_checked(0, 1);
        for cut in [1, 4, wire.len() - HEADER_BYTES, wire.len() - 1] {
            let err = Frame::decode_checked(&wire[..wire.len() - cut]).unwrap_err();
            assert!(matches!(err, RuntimeError::Corrupt { .. }), "cut {cut}: {err}");
        }
        assert!(matches!(
            Frame::decode_checked([0u8; 0]).unwrap_err(),
            RuntimeError::Corrupt { .. }
        ));
    }

    #[test]
    fn checked_decode_rejects_unknown_flags() {
        let f = Frame::new(1, NodeId::Gateway, Payload::OffloadRequest);
        // The flags byte is covered by the CRC, so an in-flight flip is
        // caught as a CRC mismatch; a *sender* setting undefined bits is
        // caught by the flag mask. Encode with the bogus flag directly so
        // the CRC is consistent and the mask check is what fires.
        let wire = f.encode_checked(0x80, 1);
        let err = Frame::decode_checked(wire).unwrap_err();
        assert!(matches!(err, RuntimeError::Corrupt { .. }), "{err}");
        assert!(err.to_string().contains("flags"), "{err}");
    }

    /// Bytes `i·31 + 7 mod 251`: no period a fold lane could line up with.
    fn bytes(n: usize) -> Vec<u8> {
        (0..n).map(|i| ((i * 31 + 7) % 251) as u8).collect()
    }

    #[test]
    fn crc32_parts_equals_the_crc_of_the_concatenation() {
        // `seal` checksums a frame in two parts around its CRC field; the
        // second part crosses the fold's 128-byte threshold and its
        // 64- and 16-byte steps.
        for split in [0, CRC_OFFSET] {
            for tail in [127, 128, 129, 191, 192, 12_310] {
                let data = bytes(split + tail);
                let (a, b) = data.split_at(split);
                assert_eq!(crc32_parts(a, b), crc32(&data), "split {split}, tail {tail}");
            }
        }
    }

    #[test]
    fn the_table_and_the_fold_agree() {
        // Pins the table path, which every input under 128 bytes and every
        // CPU without PCLMULQDQ takes, against the fold at every length
        // over a few lane rounds, every 16-byte start offset and chained
        // running states.
        #[cfg(target_arch = "x86_64")]
        if clmul::available() {
            let data = bytes(600);
            for off in 0..16 {
                for end in off + clmul::MIN_LEN..=data.len() {
                    let (slice, state) = (&data[off..end], (end as u32).wrapping_mul(0x9E37_79B9));
                    // SAFETY: `available` checked the CPU features.
                    let folded = unsafe { clmul::fold(state, slice) };
                    assert_eq!(folded, crc32_table(state, slice), "{off}..{end}, {state:#x}");
                }
            }
        }
    }
}
