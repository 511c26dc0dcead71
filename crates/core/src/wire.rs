//! Hand-rolled binary codec for shippable exploration artifacts.
//!
//! The environment has no serde, so `chef-serve`'s on-disk corpus format
//! and network payloads use this small versioned little-endian framing
//! instead. A frame is
//!
//! ```text
//! magic "CHWR" (4) | version u16 | tag u8 | payload length u32 | payload
//! ```
//!
//! with every multi-byte integer little-endian. Decoding is total: any
//! truncated, corrupted, or oversized input yields a [`WireError`], never a
//! panic — corpus files are read back after crashes, and network bytes are
//! untrusted.
//!
//! [`Wire`] is implemented for the portable artifacts of the stack:
//! [`WorkSeed`] (a session checkpoint is a frontier of these),
//! [`TestCase`] (the corpus stores deduplicated streams of them),
//! [`Report`] (shipped whole to `results` clients), — since wire
//! version 2 — [`Snapshot`] (the fork-point state image stored once per
//! corpus target; seeds reference it by fingerprint), and [`SchedStats`]
//! (per-session fair-share scheduling counters, persisted next to the
//! checkpoint so quota accounting survives daemon restarts).
//!
//! Version 2 frames additionally extend [`WorkSeed`] with the snapshot
//! fingerprint and [`ExecStats`] with the snapshot counters; version 1
//! frames still decode (the new fields default), so corpora written by
//! earlier daemons stay readable.
//!
//! Version 3 appends a CRC-32 (IEEE) of the header + payload after the
//! payload of every frame. Corpus files are read back after crashes and
//! live on real disks: torn appends were already caught by the framing
//! (truncated tail), but a flipped bit *inside* a stored frame used to
//! decode as silently wrong data for every artifact except [`Snapshot`]
//! (which carries its own fingerprint). With the trailing CRC, any
//! single-bit corruption surfaces as [`WireError::BadCrc`], which the
//! corpus scrub pass treats as "drop this frame and resync" rather than
//! trusting it. v1/v2 frames (no CRC) still decode; the golden-bytes
//! fixtures in `tests/wire_compat.rs` pin that promise.

use std::collections::{BTreeMap, HashMap, HashSet};
use std::fmt;
use std::time::Duration;

use chef_solver::SolverStats;
use chef_symex::{ExecStats, FfSiteState, FfSiteTable, SnapFrame, SnapNode, Snapshot};
use chef_trace::{FfSite, Histogram, TraceStats, PHASE_COUNT};

use crate::engine::{Report, TestCase, TestStatus, TimelinePoint};
use crate::hl::HlNodeId;
use crate::seed::WorkSeed;
use crate::stats::SchedStats;

/// Frame magic: "CHWR" (CHef WiRe).
pub const MAGIC: [u8; 4] = *b"CHWR";

/// Current codec version; bumped on any layout change. Version 2 added
/// snapshot frames, the [`WorkSeed`] snapshot fingerprint, and the
/// snapshot [`ExecStats`] counters. Version 3 appends a CRC-32 of the
/// header + payload to every frame. Version 4 appends the concrete
/// fast-forward [`ExecStats`] counters. Version 5 appends a compact
/// [`chef_trace::TraceStats`] section to [`Report`] and gives
/// `TraceStats` its own frame tag (per-session trace persistence).
/// Version 6 adds the adaptive fast-forward plane: a per-site backoff
/// gauge and segment-length histogram inside `TraceStats`, the
/// `ff_skipped` [`ExecStats`] counter, a learned-site-table section on
/// [`Report`], and the standalone [`FfTable`] frame fleet workers and
/// serve sessions exchange. Version 7 appends a session's other status
/// counters (tests added and seeded, resume seed split, last-slice test
/// rate, watchdog aborts, poisoned seeds) to [`SchedStats`].
pub const VERSION: u16 = 7;

/// First version whose frames carry a trailing CRC-32.
pub const CRC_VERSION: u16 = 3;

/// Bytes of trailing CRC-32 on frames at [`CRC_VERSION`] and later.
pub const FRAME_TRAILER: usize = 4;

/// Oldest version frames are still decoded from.
pub const MIN_VERSION: u16 = 1;

/// Upper bound on a single frame payload (guards against allocating
/// gigabytes for a corrupted length field).
pub const MAX_FRAME: usize = 1 << 28; // 256 MiB

/// Fixed bytes before the payload: magic + version + tag + length.
pub const FRAME_HEADER: usize = 4 + 2 + 1 + 4;

/// Decoding failure. Encoding is infallible.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum WireError {
    /// Input ended before the declared structure did.
    Truncated,
    /// Frame does not start with [`MAGIC`].
    BadMagic,
    /// Frame was written by an incompatible codec version.
    BadVersion(u16),
    /// Frame carries a different artifact than the caller asked for.
    BadTag { expected: u8, got: u8 },
    /// A declared length exceeds [`MAX_FRAME`] or the remaining input.
    BadLength(u64),
    /// An enum discriminant or invariant did not decode to a known value.
    Invalid(&'static str),
    /// A string field was not valid UTF-8.
    Utf8,
    /// The payload decoded cleanly but bytes were left over.
    TrailingBytes,
    /// The frame's trailing CRC-32 did not match its contents (bit rot or
    /// in-place corruption; v3+ frames only).
    BadCrc,
}

impl fmt::Display for WireError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WireError::Truncated => write!(f, "truncated frame"),
            WireError::BadMagic => write!(f, "bad frame magic"),
            WireError::BadVersion(v) => write!(f, "unsupported wire version {v}"),
            WireError::BadTag { expected, got } => {
                write!(f, "expected frame tag {expected}, got {got}")
            }
            WireError::BadLength(n) => write!(f, "implausible length {n}"),
            WireError::Invalid(what) => write!(f, "invalid {what}"),
            WireError::Utf8 => write!(f, "invalid utf-8 in string field"),
            WireError::TrailingBytes => write!(f, "trailing bytes after payload"),
            WireError::BadCrc => write!(f, "frame crc mismatch"),
        }
    }
}

impl std::error::Error for WireError {}

/// Little-endian encoder over a growable buffer.
#[derive(Default)]
pub struct Writer {
    /// Encoded bytes.
    pub buf: Vec<u8>,
}

impl Writer {
    /// Creates an empty writer.
    pub fn new() -> Self {
        Self::default()
    }

    /// Appends a `u8`.
    pub fn u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    /// Appends a little-endian `u16`.
    pub fn u16(&mut self, v: u16) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends a little-endian `u32`.
    pub fn u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends a little-endian `u64`.
    pub fn u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends a bool as one byte.
    pub fn bool(&mut self, v: bool) {
        self.u8(v as u8);
    }

    /// Appends a length-prefixed byte string.
    pub fn bytes(&mut self, v: &[u8]) {
        self.u32(v.len() as u32);
        self.buf.extend_from_slice(v);
    }

    /// Appends a length-prefixed UTF-8 string.
    pub fn str(&mut self, v: &str) {
        self.bytes(v.as_bytes());
    }

    /// Appends a duration as seconds + subsecond nanos.
    pub fn duration(&mut self, d: Duration) {
        self.u64(d.as_secs());
        self.u32(d.subsec_nanos());
    }
}

/// Checked little-endian decoder over a byte slice.
pub struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    /// Creates a reader over `buf`.
    pub fn new(buf: &'a [u8]) -> Self {
        Reader { buf, pos: 0 }
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], WireError> {
        if self.remaining() < n {
            return Err(WireError::Truncated);
        }
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    /// Reads a `u8`.
    pub fn u8(&mut self) -> Result<u8, WireError> {
        Ok(self.take(1)?[0])
    }

    /// Reads a little-endian `u16`.
    pub fn u16(&mut self) -> Result<u16, WireError> {
        Ok(u16::from_le_bytes(self.take(2)?.try_into().unwrap()))
    }

    /// Reads a little-endian `u32`.
    pub fn u32(&mut self) -> Result<u32, WireError> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }

    /// Reads a little-endian `u64`.
    pub fn u64(&mut self) -> Result<u64, WireError> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }

    /// Reads a one-byte bool (strictly 0 or 1).
    pub fn bool(&mut self) -> Result<bool, WireError> {
        match self.u8()? {
            0 => Ok(false),
            1 => Ok(true),
            _ => Err(WireError::Invalid("bool")),
        }
    }

    /// Reads a length, validating it against the remaining input so
    /// corrupted prefixes cannot trigger huge allocations.
    fn len(&mut self) -> Result<usize, WireError> {
        let n = self.u32()? as usize;
        if n > self.remaining() {
            return Err(WireError::BadLength(n as u64));
        }
        Ok(n)
    }

    /// Reads a length-prefixed byte string.
    pub fn bytes(&mut self) -> Result<&'a [u8], WireError> {
        let n = self.len()?;
        self.take(n)
    }

    /// Reads a length-prefixed UTF-8 string.
    pub fn str(&mut self) -> Result<String, WireError> {
        let b = self.bytes()?;
        String::from_utf8(b.to_vec()).map_err(|_| WireError::Utf8)
    }

    /// Reads a duration (seconds + subsecond nanos).
    pub fn duration(&mut self) -> Result<Duration, WireError> {
        let secs = self.u64()?;
        let nanos = self.u32()?;
        if nanos >= 1_000_000_000 {
            return Err(WireError::Invalid("duration nanos"));
        }
        Ok(Duration::new(secs, nanos))
    }
}

/// CRC-32 (IEEE 802.3, reflected polynomial `0xEDB8_8320`) over `bytes`.
/// The bitwise loop keeps the codec dependency-free; frame CRCs cover a
/// few KiB at most, so table lookup buys nothing measurable here.
pub fn crc32(bytes: &[u8]) -> u32 {
    let mut crc: u32 = !0;
    for &b in bytes {
        crc ^= b as u32;
        for _ in 0..8 {
            let mask = (crc & 1).wrapping_neg();
            crc = (crc >> 1) ^ (0xEDB8_8320 & mask);
        }
    }
    !crc
}

/// A type with a stable binary wire representation.
pub trait Wire: Sized {
    /// Frame tag distinguishing this artifact.
    const TAG: u8;

    /// Writes the payload (no framing), always at [`VERSION`].
    fn encode_body(&self, w: &mut Writer);

    /// Reads the payload (no framing) as laid out by codec `version`
    /// (guaranteed within `MIN_VERSION..=VERSION` by the framing layer).
    fn decode_body(r: &mut Reader, version: u16) -> Result<Self, WireError>;

    /// Encodes a complete framed artifact (magic, version, tag, length,
    /// payload, crc32 of everything before it).
    fn to_frame(&self) -> Vec<u8> {
        let mut body = Writer::new();
        self.encode_body(&mut body);
        let mut w = Writer::new();
        w.buf.extend_from_slice(&MAGIC);
        w.u16(VERSION);
        w.u8(Self::TAG);
        w.u32(body.buf.len() as u32);
        w.buf.extend_from_slice(&body.buf);
        let crc = crc32(&w.buf);
        w.u32(crc);
        w.buf
    }

    /// Decodes one framed artifact from the front of `buf`, returning it
    /// and the number of bytes consumed.
    fn from_frame_prefix(buf: &[u8]) -> Result<(Self, usize), WireError> {
        let mut r = Reader::new(buf);
        if r.take(4)? != MAGIC {
            return Err(WireError::BadMagic);
        }
        let version = r.u16()?;
        if !(MIN_VERSION..=VERSION).contains(&version) {
            return Err(WireError::BadVersion(version));
        }
        let tag = r.u8()?;
        if tag != Self::TAG {
            return Err(WireError::BadTag {
                expected: Self::TAG,
                got: tag,
            });
        }
        let len = r.u32()? as usize;
        if len > MAX_FRAME || len > r.remaining() {
            return Err(WireError::Truncated);
        }
        let payload = r.take(len)?;
        let mut span = FRAME_HEADER + len;
        if version >= CRC_VERSION {
            let stored = r.u32().map_err(|_| WireError::Truncated)?;
            if crc32(&buf[..FRAME_HEADER + len]) != stored {
                return Err(WireError::BadCrc);
            }
            span += FRAME_TRAILER;
        }
        let mut pr = Reader::new(payload);
        let v = Self::decode_body(&mut pr, version)?;
        if pr.remaining() != 0 {
            return Err(WireError::TrailingBytes);
        }
        Ok((v, span))
    }

    /// Length of the frame at the front of `buf` (header + payload),
    /// validating the header only — the payload is not decoded. Lets
    /// readers skip over frames in O(1) per frame (paged corpus reads).
    fn frame_span(buf: &[u8]) -> Result<usize, WireError> {
        let mut r = Reader::new(buf);
        if r.take(4)? != MAGIC {
            return Err(WireError::BadMagic);
        }
        let version = r.u16()?;
        if !(MIN_VERSION..=VERSION).contains(&version) {
            return Err(WireError::BadVersion(version));
        }
        let tag = r.u8()?;
        if tag != Self::TAG {
            return Err(WireError::BadTag {
                expected: Self::TAG,
                got: tag,
            });
        }
        let len = r.u32()? as usize;
        let trailer = if version >= CRC_VERSION {
            FRAME_TRAILER
        } else {
            0
        };
        if len > MAX_FRAME || len + trailer > r.remaining() {
            return Err(WireError::Truncated);
        }
        Ok(FRAME_HEADER + len + trailer)
    }

    /// Decodes one framed artifact that must span the whole input.
    fn from_frame(buf: &[u8]) -> Result<Self, WireError> {
        let (v, used) = Self::from_frame_prefix(buf)?;
        if used != buf.len() {
            return Err(WireError::TrailingBytes);
        }
        Ok(v)
    }

    /// Decodes a concatenation of frames (the corpus's append-only file
    /// layout) until the input is exhausted.
    fn decode_stream(buf: &[u8]) -> Result<Vec<Self>, WireError> {
        let mut out = Vec::new();
        let mut rest = buf;
        while !rest.is_empty() {
            let (v, used) = Self::from_frame_prefix(rest)?;
            out.push(v);
            rest = &rest[used..];
        }
        Ok(out)
    }
}

impl Wire for WorkSeed {
    const TAG: u8 = 1;

    fn encode_body(&self, w: &mut Writer) {
        w.u32(self.choices.len() as u32);
        for &c in &self.choices {
            w.u64(c);
        }
        // v2: the snapshot *reference*. The snapshot itself travels in its
        // own frame (stored once per corpus target), never per seed.
        match self.snapshot_fp {
            None => w.bool(false),
            Some(fp) => {
                w.bool(true);
                w.u64(fp);
            }
        }
    }

    fn decode_body(r: &mut Reader, version: u16) -> Result<Self, WireError> {
        let n = r.u32()? as usize;
        if n > r.remaining() / 8 {
            return Err(WireError::BadLength(n as u64));
        }
        let mut choices = Vec::with_capacity(n);
        for _ in 0..n {
            choices.push(r.u64()?);
        }
        let snapshot_fp = if version >= 2 {
            if r.bool()? {
                Some(r.u64()?)
            } else {
                None
            }
        } else {
            None
        };
        Ok(WorkSeed {
            choices,
            snapshot_fp,
            snapshot: None,
        })
    }
}

impl Wire for Snapshot {
    const TAG: u8 = 4;

    fn encode_body(&self, w: &mut Writer) {
        w.u64(self.fingerprint);
        w.u32(self.vars.len() as u32);
        for (name, width) in &self.vars {
            w.str(name);
            w.u8(*width);
        }
        w.u32(self.nodes.len() as u32);
        for n in &self.nodes {
            match n {
                SnapNode::Const { width, bits } => {
                    w.u8(0);
                    w.u8(*width);
                    w.u64(*bits);
                }
                SnapNode::Var { var } => {
                    w.u8(1);
                    w.u32(*var);
                }
                SnapNode::Not { a } => {
                    w.u8(2);
                    w.u32(*a);
                }
                SnapNode::Bin { op, a, b } => {
                    w.u8(3);
                    w.u8(*op);
                    w.u32(*a);
                    w.u32(*b);
                }
                SnapNode::Ite { cond, t, f } => {
                    w.u8(4);
                    w.u32(*cond);
                    w.u32(*t);
                    w.u32(*f);
                }
                SnapNode::Extract { hi, lo, a } => {
                    w.u8(5);
                    w.u8(*hi);
                    w.u8(*lo);
                    w.u32(*a);
                }
                SnapNode::Ext { signed, width, a } => {
                    w.u8(6);
                    w.bool(*signed);
                    w.u8(*width);
                    w.u32(*a);
                }
                SnapNode::Concat { a, b } => {
                    w.u8(7);
                    w.u32(*a);
                    w.u32(*b);
                }
            }
        }
        w.u32(self.frames.len() as u32);
        for f in &self.frames {
            w.u32(f.func);
            w.u32(f.block);
            w.u32(f.ip);
            w.u32(f.regs.len() as u32);
            for &r in &f.regs {
                w.u32(r);
            }
            match f.ret_dst {
                None => w.bool(false),
                Some(r) => {
                    w.bool(true);
                    w.u32(r);
                }
            }
        }
        w.u32(self.pages.len() as u32);
        for (k, bytes) in &self.pages {
            w.u64(*k);
            w.u32(bytes.len() as u32);
            for &b in bytes {
                w.u32(b);
            }
        }
        w.u32(self.path.len() as u32);
        for &p in &self.path {
            w.u32(p);
        }
        w.u32(self.inputs.len() as u32);
        for (name, vars) in &self.inputs {
            w.str(name);
            w.u32(vars.len() as u32);
            for &v in vars {
                w.u32(v);
            }
        }
        w.u32(self.trace.len() as u32);
        for &t in &self.trace {
            w.u64(t);
        }
        w.u32(self.hl_events.len() as u32);
        for &(pc, opcode) in &self.hl_events {
            w.u64(pc);
            w.u64(opcode);
        }
        w.u64(self.hlpc);
        w.u64(self.hl_opcode);
        w.u64(self.hl_len);
        w.u64(self.ll_steps);
    }

    fn decode_body(r: &mut Reader, _version: u16) -> Result<Self, WireError> {
        let fingerprint = r.u64()?;
        let n_vars = r.u32()? as usize;
        if n_vars > r.remaining() {
            return Err(WireError::BadLength(n_vars as u64));
        }
        let mut vars = Vec::with_capacity(n_vars);
        for _ in 0..n_vars {
            let name = r.str()?;
            vars.push((name, r.u8()?));
        }
        let n_nodes = r.u32()? as usize;
        if n_nodes > r.remaining() {
            return Err(WireError::BadLength(n_nodes as u64));
        }
        let mut nodes = Vec::with_capacity(n_nodes);
        for _ in 0..n_nodes {
            nodes.push(match r.u8()? {
                0 => SnapNode::Const {
                    width: r.u8()?,
                    bits: r.u64()?,
                },
                1 => SnapNode::Var { var: r.u32()? },
                2 => SnapNode::Not { a: r.u32()? },
                3 => SnapNode::Bin {
                    op: r.u8()?,
                    a: r.u32()?,
                    b: r.u32()?,
                },
                4 => SnapNode::Ite {
                    cond: r.u32()?,
                    t: r.u32()?,
                    f: r.u32()?,
                },
                5 => SnapNode::Extract {
                    hi: r.u8()?,
                    lo: r.u8()?,
                    a: r.u32()?,
                },
                6 => SnapNode::Ext {
                    signed: r.bool()?,
                    width: r.u8()?,
                    a: r.u32()?,
                },
                7 => SnapNode::Concat {
                    a: r.u32()?,
                    b: r.u32()?,
                },
                _ => return Err(WireError::Invalid("snapshot node tag")),
            });
        }
        let n_frames = r.u32()? as usize;
        if n_frames > r.remaining() {
            return Err(WireError::BadLength(n_frames as u64));
        }
        let mut frames = Vec::with_capacity(n_frames);
        for _ in 0..n_frames {
            let func = r.u32()?;
            let block = r.u32()?;
            let ip = r.u32()?;
            let n_regs = r.u32()? as usize;
            if n_regs > r.remaining() / 4 {
                return Err(WireError::BadLength(n_regs as u64));
            }
            let mut regs = Vec::with_capacity(n_regs);
            for _ in 0..n_regs {
                regs.push(r.u32()?);
            }
            let ret_dst = if r.bool()? { Some(r.u32()?) } else { None };
            frames.push(SnapFrame {
                func,
                block,
                ip,
                regs,
                ret_dst,
            });
        }
        let n_pages = r.u32()? as usize;
        if n_pages > r.remaining() {
            return Err(WireError::BadLength(n_pages as u64));
        }
        let mut pages = Vec::with_capacity(n_pages);
        for _ in 0..n_pages {
            let k = r.u64()?;
            let n_bytes = r.u32()? as usize;
            if n_bytes > r.remaining() / 4 {
                return Err(WireError::BadLength(n_bytes as u64));
            }
            let mut bytes = Vec::with_capacity(n_bytes);
            for _ in 0..n_bytes {
                bytes.push(r.u32()?);
            }
            pages.push((k, bytes));
        }
        let n_path = r.u32()? as usize;
        if n_path > r.remaining() / 4 {
            return Err(WireError::BadLength(n_path as u64));
        }
        let mut path = Vec::with_capacity(n_path);
        for _ in 0..n_path {
            path.push(r.u32()?);
        }
        let n_inputs = r.u32()? as usize;
        if n_inputs > r.remaining() {
            return Err(WireError::BadLength(n_inputs as u64));
        }
        let mut inputs = Vec::with_capacity(n_inputs);
        for _ in 0..n_inputs {
            let name = r.str()?;
            let n_vs = r.u32()? as usize;
            if n_vs > r.remaining() / 4 {
                return Err(WireError::BadLength(n_vs as u64));
            }
            let mut vs = Vec::with_capacity(n_vs);
            for _ in 0..n_vs {
                vs.push(r.u32()?);
            }
            inputs.push((name, vs));
        }
        let n_trace = r.u32()? as usize;
        if n_trace > r.remaining() / 8 {
            return Err(WireError::BadLength(n_trace as u64));
        }
        let mut trace = Vec::with_capacity(n_trace);
        for _ in 0..n_trace {
            trace.push(r.u64()?);
        }
        let n_hl = r.u32()? as usize;
        if n_hl > r.remaining() / 16 {
            return Err(WireError::BadLength(n_hl as u64));
        }
        let mut hl_events = Vec::with_capacity(n_hl);
        for _ in 0..n_hl {
            let pc = r.u64()?;
            hl_events.push((pc, r.u64()?));
        }
        let snap = Snapshot {
            fingerprint,
            vars,
            nodes,
            frames,
            pages,
            path,
            inputs,
            trace,
            hl_events,
            hlpc: r.u64()?,
            hl_opcode: r.u64()?,
            hl_len: r.u64()?,
            ll_steps: r.u64()?,
        };
        // Integrity gate: the fingerprint commits to every field, so any
        // bit flip in the payload (or in the stored fingerprint itself) is
        // rejected here instead of surfacing as a wrong-but-restorable
        // state.
        if snap.compute_fingerprint() != snap.fingerprint {
            return Err(WireError::Invalid("snapshot fingerprint"));
        }
        Ok(snap)
    }
}

fn encode_status(status: &TestStatus, w: &mut Writer) {
    match status {
        TestStatus::Ok(c) => {
            w.u8(0);
            w.u64(*c);
        }
        TestStatus::Crash(c) => {
            w.u8(1);
            w.u64(*c);
        }
        TestStatus::Hang => {
            w.u8(2);
            w.u64(0);
        }
    }
}

fn decode_status(r: &mut Reader) -> Result<TestStatus, WireError> {
    let tag = r.u8()?;
    let code = r.u64()?;
    match tag {
        0 => Ok(TestStatus::Ok(code)),
        1 => Ok(TestStatus::Crash(code)),
        2 => Ok(TestStatus::Hang),
        _ => Err(WireError::Invalid("test status")),
    }
}

impl Wire for TestCase {
    const TAG: u8 = 2;

    fn encode_body(&self, w: &mut Writer) {
        w.u64(self.id as u64);
        // Sorted for a canonical byte representation (InputMap is a
        // HashMap; corpus files must not depend on iteration order).
        let mut inputs: Vec<(&String, &Vec<u8>)> = self.inputs.iter().collect();
        inputs.sort();
        w.u32(inputs.len() as u32);
        for (name, bytes) in inputs {
            w.str(name);
            w.bytes(bytes);
        }
        encode_status(&self.status, w);
        match &self.exception {
            None => w.bool(false),
            Some(e) => {
                w.bool(true);
                w.str(e);
            }
        }
        w.u64(self.hl_path.0 as u64);
        w.u64(self.hl_sig);
        w.bool(self.new_hl_path);
        w.u64(self.ll_steps);
        w.u64(self.at_ll_instructions);
    }

    fn decode_body(r: &mut Reader, _version: u16) -> Result<Self, WireError> {
        let id = r.u64()? as usize;
        let n = r.u32()? as usize;
        if n > r.remaining() {
            return Err(WireError::BadLength(n as u64));
        }
        let mut inputs = HashMap::with_capacity(n);
        for _ in 0..n {
            let name = r.str()?;
            let bytes = r.bytes()?.to_vec();
            inputs.insert(name, bytes);
        }
        let status = decode_status(r)?;
        let exception = if r.bool()? { Some(r.str()?) } else { None };
        let hl_path = HlNodeId(u32::try_from(r.u64()?).map_err(|_| WireError::Invalid("hl node"))?);
        let hl_sig = r.u64()?;
        let new_hl_path = r.bool()?;
        let ll_steps = r.u64()?;
        let at_ll_instructions = r.u64()?;
        Ok(TestCase {
            id,
            inputs,
            status,
            exception,
            hl_path,
            hl_sig,
            new_hl_path,
            ll_steps,
            at_ll_instructions,
        })
    }
}

fn encode_exec_stats(s: &ExecStats, w: &mut Writer) {
    w.u64(s.ll_instructions);
    w.u64(s.forks);
    w.u64(s.symptr_forks);
    w.u64(s.dropped_ptr_values);
    w.u64(s.states_created);
    // v2 fields.
    w.u64(s.snapshots_captured);
    w.u64(s.snapshot_restores);
    w.u64(s.prologue_ll_skipped);
    w.u64(s.full_replays);
    // v4 fields.
    w.u64(s.concrete_ll_executed);
    w.u64(s.fast_forwards);
    w.u64(s.ff_aborts);
    // v6 fields.
    w.u64(s.ff_skipped);
}

fn decode_exec_stats(r: &mut Reader, version: u16) -> Result<ExecStats, WireError> {
    let mut s = ExecStats {
        ll_instructions: r.u64()?,
        forks: r.u64()?,
        symptr_forks: r.u64()?,
        dropped_ptr_values: r.u64()?,
        states_created: r.u64()?,
        ..ExecStats::default()
    };
    if version >= 2 {
        s.snapshots_captured = r.u64()?;
        s.snapshot_restores = r.u64()?;
        s.prologue_ll_skipped = r.u64()?;
        s.full_replays = r.u64()?;
    }
    if version >= 4 {
        s.concrete_ll_executed = r.u64()?;
        s.fast_forwards = r.u64()?;
        s.ff_aborts = r.u64()?;
    }
    if version >= 6 {
        s.ff_skipped = r.u64()?;
    }
    Ok(s)
}

fn encode_solver_stats(s: &SolverStats, w: &mut Writer) {
    w.u64(s.queries);
    w.u64(s.cache_hits);
    w.u64(s.cache_evictions);
    w.u64(s.model_reuse_hits);
    w.u64(s.const_hits);
    w.u64(s.sat_calls);
    w.u64(s.assumption_solves);
    w.u64(s.blast_cache_hits);
    w.u64(s.blast_cache_misses);
    w.u64(s.clauses_deleted);
    w.u64(s.guards_recycled);
    w.u64(s.components);
    w.u64(s.unknowns);
    w.duration(s.sat_time);
}

fn decode_solver_stats(r: &mut Reader) -> Result<SolverStats, WireError> {
    Ok(SolverStats {
        queries: r.u64()?,
        cache_hits: r.u64()?,
        cache_evictions: r.u64()?,
        model_reuse_hits: r.u64()?,
        const_hits: r.u64()?,
        sat_calls: r.u64()?,
        assumption_solves: r.u64()?,
        blast_cache_hits: r.u64()?,
        blast_cache_misses: r.u64()?,
        clauses_deleted: r.u64()?,
        guards_recycled: r.u64()?,
        components: r.u64()?,
        unknowns: r.u64()?,
        sat_time: r.duration()?,
    })
}

impl Wire for SchedStats {
    const TAG: u8 = 5;

    fn encode_body(&self, w: &mut Writer) {
        w.u64(self.quota);
        w.u64(self.slices);
        w.u64(self.preemptions);
        w.u64(self.wait_ms);
        w.u64(self.cpu_ll);
        w.u64(self.new_tests);
        w.u64(self.seeded_tests);
        w.u64(self.resume_snapshot_seeds);
        w.u64(self.resume_full_seeds);
        w.u64(self.tests_per_sec_milli);
        w.u64(self.watchdog_aborts);
        w.u64(self.poisoned_seeds);
    }

    fn decode_body(r: &mut Reader, version: u16) -> Result<Self, WireError> {
        let mut s = SchedStats {
            quota: r.u64()?,
            slices: r.u64()?,
            preemptions: r.u64()?,
            wait_ms: r.u64()?,
            cpu_ll: r.u64()?,
            ..SchedStats::default()
        };
        // Older frames predate the status counters: they read as zero.
        if version >= 7 {
            s.new_tests = r.u64()?;
            s.seeded_tests = r.u64()?;
            s.resume_snapshot_seeds = r.u64()?;
            s.resume_full_seeds = r.u64()?;
            s.tests_per_sec_milli = r.u64()?;
            s.watchdog_aborts = r.u64()?;
            s.poisoned_seeds = r.u64()?;
        }
        Ok(s)
    }
}

fn encode_histogram(h: &Histogram, w: &mut Writer) {
    // Sparse: only populated log2 buckets travel.
    let nonzero: Vec<(u8, u64)> = h.nonzero().collect();
    w.u32(nonzero.len() as u32);
    for (idx, count) in nonzero {
        w.u8(idx);
        w.u64(count);
    }
}

fn decode_histogram(r: &mut Reader) -> Result<Histogram, WireError> {
    let n = r.u32()? as usize;
    if n > r.remaining() / 9 {
        return Err(WireError::BadLength(n as u64));
    }
    let mut h = Histogram::default();
    for _ in 0..n {
        let idx = r.u8()?;
        // Out-of-range buckets are dropped, not fatal: a future codec may
        // widen the histogram.
        h.add_bucket(idx, r.u64()?);
    }
    Ok(h)
}

fn encode_trace_stats(s: &TraceStats, w: &mut Writer) {
    w.u8(PHASE_COUNT as u8);
    for i in 0..PHASE_COUNT {
        w.u64(s.phase_count[i]);
        w.u64(s.phase_ns[i]);
    }
    encode_histogram(&s.span_ns, w);
    encode_histogram(&s.solver_query_ns, w);
    w.u32(s.ff_sites.len() as u32);
    for (pc, site) in &s.ff_sites {
        w.u64(*pc);
        w.u64(site.attempts);
        w.u64(site.retired);
        w.u64(site.aborts);
        w.u64(site.steps);
        // v6 field.
        w.u64(site.backoff);
    }
    // v6: segment-length histogram.
    encode_histogram(&s.ff_seg_len, w);
}

fn decode_trace_stats(r: &mut Reader, version: u16) -> Result<TraceStats, WireError> {
    let n_phases = r.u8()? as usize;
    if n_phases > r.remaining() / 16 {
        return Err(WireError::BadLength(n_phases as u64));
    }
    let mut s = TraceStats::default();
    for i in 0..n_phases {
        let count = r.u64()?;
        let ns = r.u64()?;
        // Phases a future codec adds are skipped, not fatal.
        if i < PHASE_COUNT {
            s.phase_count[i] = count;
            s.phase_ns[i] = ns;
        }
    }
    s.span_ns = decode_histogram(r)?;
    s.solver_query_ns = decode_histogram(r)?;
    let n_sites = r.u32()? as usize;
    if n_sites > r.remaining() / 40 {
        return Err(WireError::BadLength(n_sites as u64));
    }
    for _ in 0..n_sites {
        let pc = r.u64()?;
        s.ff_sites.insert(
            pc,
            FfSite {
                attempts: r.u64()?,
                retired: r.u64()?,
                aborts: r.u64()?,
                steps: r.u64()?,
                backoff: if version >= 6 { r.u64()? } else { 0 },
            },
        );
    }
    if version >= 6 {
        s.ff_seg_len = decode_histogram(r)?;
    }
    Ok(s)
}

impl Wire for TraceStats {
    const TAG: u8 = 6;

    fn encode_body(&self, w: &mut Writer) {
        encode_trace_stats(self, w);
    }

    fn decode_body(r: &mut Reader, version: u16) -> Result<Self, WireError> {
        decode_trace_stats(r, version)
    }
}

/// A learned fast-forward site table as a standalone frame: what fleet
/// workers ship to peers and serve sessions persist next to their trace,
/// so the adaptive gate's knowledge survives process boundaries.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct FfTable(pub FfSiteTable);

fn encode_ff_sites(sites: &FfSiteTable, w: &mut Writer) {
    w.u32(sites.len() as u32);
    for (pc, s) in sites {
        w.u64(*pc);
        w.u64(s.ewma);
        w.u32(s.backoff);
        w.u32(s.streak);
        let flags = (s.cold as u8) | ((s.anchor as u8) << 1);
        w.u8(flags);
    }
}

fn decode_ff_sites(r: &mut Reader) -> Result<FfSiteTable, WireError> {
    let n = r.u32()? as usize;
    if n > r.remaining() / 25 {
        return Err(WireError::BadLength(n as u64));
    }
    let mut sites = Vec::with_capacity(n);
    for _ in 0..n {
        let pc = r.u64()?;
        let ewma = r.u64()?;
        let backoff = r.u32()?;
        let streak = r.u32()?;
        let flags = r.u8()?;
        sites.push((
            pc,
            FfSiteState {
                ewma,
                backoff,
                streak,
                skip: 0,
                cold: flags & 1 != 0,
                anchor: flags & 2 != 0,
            },
        ));
    }
    Ok(sites)
}

impl Wire for FfTable {
    const TAG: u8 = 7;

    fn encode_body(&self, w: &mut Writer) {
        encode_ff_sites(&self.0, w);
    }

    fn decode_body(r: &mut Reader, _version: u16) -> Result<Self, WireError> {
        Ok(FfTable(decode_ff_sites(r)?))
    }
}

/// Known strategy names, so a decoded [`Report`] round-trips its
/// `&'static str` label; anything else becomes `"unknown"`.
fn intern_strategy(name: &str) -> &'static str {
    match name {
        "random" => "random",
        "dfs" => "dfs",
        "cupa" => "cupa",
        _ => "unknown",
    }
}

impl Wire for Report {
    const TAG: u8 = 3;

    fn encode_body(&self, w: &mut Writer) {
        w.u32(self.tests.len() as u32);
        for t in &self.tests {
            t.encode_body(w);
        }
        w.u64(self.hl_paths as u64);
        w.u64(self.ll_paths as u64);
        let mut covered: Vec<u64> = self.covered_hlpcs.iter().copied().collect();
        covered.sort_unstable();
        w.u32(covered.len() as u32);
        for pc in covered {
            w.u64(pc);
        }
        w.u32(self.timeline.len() as u32);
        for p in &self.timeline {
            w.u64(p.ll_instructions);
            w.u64(p.ll_paths as u64);
            w.u64(p.hl_paths as u64);
        }
        encode_exec_stats(&self.exec_stats, w);
        encode_solver_stats(&self.solver_stats, w);
        w.duration(self.elapsed);
        w.u64(self.hangs as u64);
        w.u64(self.crashes as u64);
        w.u32(self.exceptions.len() as u32);
        for (name, count) in &self.exceptions {
            w.str(name);
            w.u64(*count as u64);
        }
        w.str(self.strategy);
        w.u64(self.ll_instructions);
        w.u64(self.dropped_states);
        w.u64(self.infeasible_paths);
        w.u64(self.seeds_exported);
        w.u64(self.seeds_imported);
        // v5: the trace section.
        encode_trace_stats(&self.trace, w);
        // v6: the adaptive gate's learned site table.
        encode_ff_sites(&self.ff_sites, w);
    }

    fn decode_body(r: &mut Reader, version: u16) -> Result<Self, WireError> {
        let n_tests = r.u32()? as usize;
        if n_tests > r.remaining() {
            return Err(WireError::BadLength(n_tests as u64));
        }
        let mut tests = Vec::with_capacity(n_tests);
        for _ in 0..n_tests {
            tests.push(TestCase::decode_body(r, version)?);
        }
        let hl_paths = r.u64()? as usize;
        let ll_paths = r.u64()? as usize;
        let n_cov = r.u32()? as usize;
        if n_cov > r.remaining() / 8 {
            return Err(WireError::BadLength(n_cov as u64));
        }
        let mut covered_hlpcs = HashSet::with_capacity(n_cov);
        for _ in 0..n_cov {
            covered_hlpcs.insert(r.u64()?);
        }
        let n_tl = r.u32()? as usize;
        if n_tl > r.remaining() / 24 {
            return Err(WireError::BadLength(n_tl as u64));
        }
        let mut timeline = Vec::with_capacity(n_tl);
        for _ in 0..n_tl {
            timeline.push(TimelinePoint {
                ll_instructions: r.u64()?,
                ll_paths: r.u64()? as usize,
                hl_paths: r.u64()? as usize,
            });
        }
        let exec_stats = decode_exec_stats(r, version)?;
        let solver_stats = decode_solver_stats(r)?;
        let elapsed = r.duration()?;
        let hangs = r.u64()? as usize;
        let crashes = r.u64()? as usize;
        let n_exc = r.u32()? as usize;
        if n_exc > r.remaining() {
            return Err(WireError::BadLength(n_exc as u64));
        }
        let mut exceptions = BTreeMap::new();
        for _ in 0..n_exc {
            let name = r.str()?;
            let count = r.u64()? as usize;
            exceptions.insert(name, count);
        }
        let strategy = intern_strategy(&r.str()?);
        Ok(Report {
            tests,
            hl_paths,
            ll_paths,
            covered_hlpcs,
            timeline,
            exec_stats,
            solver_stats,
            elapsed,
            hangs,
            crashes,
            exceptions,
            strategy,
            ll_instructions: r.u64()?,
            dropped_states: r.u64()?,
            infeasible_paths: r.u64()?,
            seeds_exported: r.u64()?,
            seeds_imported: r.u64()?,
            trace: if version >= 5 {
                decode_trace_stats(r, version)?
            } else {
                TraceStats::default()
            },
            ff_sites: if version >= 6 {
                decode_ff_sites(r)?
            } else {
                FfSiteTable::new()
            },
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn workseed_roundtrip() {
        let mut seed = WorkSeed::from_choices(vec![0, 1, u64::MAX, 42]);
        seed.snapshot_fp = Some(0xdead_beef);
        let frame = seed.to_frame();
        assert_eq!(WorkSeed::from_frame(&frame).unwrap(), seed);
    }

    #[test]
    fn stream_roundtrip() {
        let seeds = vec![
            WorkSeed::root(),
            WorkSeed::from_choices(vec![7]),
            WorkSeed::from_choices(vec![1, 2, 3]),
        ];
        let mut buf = Vec::new();
        for s in &seeds {
            buf.extend_from_slice(&s.to_frame());
        }
        assert_eq!(WorkSeed::decode_stream(&buf).unwrap(), seeds);
    }

    #[test]
    fn bad_magic_and_version_and_tag_are_rejected() {
        let frame = WorkSeed::root().to_frame();
        let mut bad = frame.clone();
        bad[0] = b'X';
        assert_eq!(WorkSeed::from_frame(&bad), Err(WireError::BadMagic));
        let mut bad = frame.clone();
        bad[4] = 0xff;
        assert!(matches!(
            WorkSeed::from_frame(&bad),
            Err(WireError::BadVersion(_))
        ));
        let mut bad = frame;
        bad[6] = TestCase::TAG;
        assert!(matches!(
            WorkSeed::from_frame(&bad),
            Err(WireError::BadTag { .. })
        ));
    }

    #[test]
    fn v1_frames_still_decode_without_the_snapshot_reference() {
        // Hand-build a version-1 WorkSeed frame: no snapshot flag byte.
        let mut body = Writer::new();
        body.u32(2);
        body.u64(11);
        body.u64(22);
        let mut w = Writer::new();
        w.buf.extend_from_slice(&MAGIC);
        w.u16(1);
        w.u8(WorkSeed::TAG);
        w.u32(body.buf.len() as u32);
        w.buf.extend_from_slice(&body.buf);
        let seed = WorkSeed::from_frame(&w.buf).unwrap();
        assert_eq!(seed.choices, vec![11, 22]);
        assert_eq!(seed.snapshot_fp, None);
    }

    #[test]
    fn crc32_matches_known_vector() {
        // The classic check value for CRC-32/IEEE.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
    }

    #[test]
    fn v3_frames_detect_any_single_bit_flip() {
        let mut seed = WorkSeed::from_choices(vec![3, 1, 4, 1, 5]);
        seed.snapshot_fp = Some(0x1234);
        let frame = seed.to_frame();
        assert_eq!(WorkSeed::from_frame(&frame).unwrap(), seed);
        for byte in 0..frame.len() {
            for bit in 0..8 {
                let mut bad = frame.clone();
                bad[byte] ^= 1 << bit;
                assert!(
                    WorkSeed::from_frame(&bad).is_err(),
                    "flip at byte {byte} bit {bit} must not decode"
                );
            }
        }
    }

    #[test]
    fn frame_span_includes_the_crc_trailer() {
        let seed = WorkSeed::from_choices(vec![9]);
        let frame = seed.to_frame();
        assert_eq!(WorkSeed::frame_span(&frame).unwrap(), frame.len());
        // Two concatenated frames: the span of the first lands exactly on
        // the second.
        let mut buf = frame.clone();
        buf.extend_from_slice(&frame);
        let span = WorkSeed::frame_span(&buf).unwrap();
        assert_eq!(WorkSeed::from_frame(&buf[span..]).unwrap(), seed);
    }

    #[test]
    fn pre_crc_versions_still_decode_without_a_trailer() {
        // Hand-build a version-2 frame (no trailing CRC).
        let mut body = Writer::new();
        body.u32(1);
        body.u64(77);
        body.bool(true);
        body.u64(0xabcd);
        let mut w = Writer::new();
        w.buf.extend_from_slice(&MAGIC);
        w.u16(2);
        w.u8(WorkSeed::TAG);
        w.u32(body.buf.len() as u32);
        w.buf.extend_from_slice(&body.buf);
        let seed = WorkSeed::from_frame(&w.buf).unwrap();
        assert_eq!(seed.choices, vec![77]);
        assert_eq!(seed.snapshot_fp, Some(0xabcd));
        assert_eq!(WorkSeed::frame_span(&w.buf).unwrap(), w.buf.len());
    }

    #[test]
    fn truncation_is_an_error_not_a_panic() {
        let seed = WorkSeed::from_choices(vec![1, 2, 3, 4, 5]);
        let frame = seed.to_frame();
        for cut in 0..frame.len() {
            assert!(
                WorkSeed::from_frame(&frame[..cut]).is_err(),
                "every strict prefix must fail cleanly (cut at {cut})"
            );
        }
    }
}
