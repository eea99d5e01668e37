//! The gc-net wire protocol: length-prefixed binary frames over TCP.
//!
//! Every message is one frame:
//!
//! ```text
//! [u32 LE payload_len][u8 verb][payload_len - 1 bytes of body]
//! ```
//!
//! `payload_len` counts the verb byte plus the body, never the length
//! prefix itself. All integers are little-endian; vertex ids are `u32`
//! (as on the GPU), offsets and counts `u64`. A GetResult reply's colors
//! are width-tagged: one byte names the width (1, 2 or 4 bytes per
//! color), the narrowest that holds the largest color, and every color
//! follows at that width (see [`ResultPayload`]). There is no external
//! serialization dependency — encoding is explicit byte pushing,
//! decoding goes through [`BodyReader`], whose every read is
//! bounds-checked and returns [`WireError::Malformed`] instead of
//! panicking. That property is load-bearing: the decoder faces
//! untrusted bytes, and the fuzz tests in this crate feed it truncated,
//! oversized, and garbage frames.
//!
//! Frames larger than [`MAX_FRAME_LEN`] are rejected *before* any
//! allocation, and array lengths inside a body are cross-checked
//! against the bytes actually received before the arrays are
//! materialized, so a forged header cannot make the server allocate
//! more than the attacker actually sent.

use std::io::{Read, Write};

use gc_graph::{Csr, EdgeDelta};

/// Hard ceiling on a frame's payload (verb + body): 256 MiB. Large
/// enough for the CSR of every dataset in the study, small enough that
/// a forged length prefix cannot OOM the server.
pub const MAX_FRAME_LEN: usize = 1 << 28;

/// Request verbs (client → server).
pub const VERB_SUBMIT_GRAPH: u8 = 0x01;
pub const VERB_COLOR: u8 = 0x02;
pub const VERB_GET_RESULT: u8 = 0x03;
pub const VERB_MUTATE_EDGES: u8 = 0x04;
pub const VERB_SUBSCRIBE_STATS: u8 = 0x05;
pub const VERB_SHUTDOWN: u8 = 0x06;

/// Response verbs (server → client): request verb | 0x80.
pub const VERB_SUBMIT_GRAPH_OK: u8 = 0x81;
pub const VERB_COLOR_OK: u8 = 0x82;
pub const VERB_GET_RESULT_OK: u8 = 0x83;
pub const VERB_MUTATE_EDGES_OK: u8 = 0x84;
pub const VERB_STATS_TICK: u8 = 0x85;
pub const VERB_SHUTDOWN_OK: u8 = 0x86;

/// Error response, any verb.
pub const VERB_ERROR: u8 = 0x7F;

/// Cap on the `ticks` count of a SubscribeStats request — bounds how
/// long one request can hold its connection thread.
pub const MAX_STATS_TICKS: u32 = 1024;

/// Human-readable verb name for telemetry labels and logs.
pub fn verb_name(verb: u8) -> &'static str {
    match verb {
        VERB_SUBMIT_GRAPH => "submit_graph",
        VERB_COLOR => "color",
        VERB_GET_RESULT => "get_result",
        VERB_MUTATE_EDGES => "mutate_edges",
        VERB_SUBSCRIBE_STATS => "subscribe_stats",
        VERB_SHUTDOWN => "shutdown",
        VERB_SUBMIT_GRAPH_OK => "submit_graph_ok",
        VERB_COLOR_OK => "color_ok",
        VERB_GET_RESULT_OK => "get_result_ok",
        VERB_MUTATE_EDGES_OK => "mutate_edges_ok",
        VERB_STATS_TICK => "stats_tick",
        VERB_SHUTDOWN_OK => "shutdown_ok",
        VERB_ERROR => "error",
        _ => "unknown",
    }
}

/// Machine-readable error codes carried by [`VERB_ERROR`] frames.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
#[repr(u16)]
pub enum ErrCode {
    /// The frame or body failed to decode, or violated a protocol rule.
    Malformed = 1,
    /// The request named a graph id the server is not tracking.
    UnknownGraph = 2,
    /// Shed: the request's deadline expired while it was queued.
    ShedDeadline = 3,
    /// Shed: the service admission queue was full.
    ShedQueueFull = 4,
    /// GetResult before any Color completed for the graph.
    NoResult = 5,
    /// The submitted CSR arrays are not a valid graph.
    InvalidGraph = 6,
    /// The edge delta was rejected (out-of-range endpoint, self loop).
    InvalidDelta = 7,
    /// Anything else the server could not serve.
    Internal = 8,
}

impl ErrCode {
    pub fn from_u16(x: u16) -> Option<Self> {
        Some(match x {
            1 => ErrCode::Malformed,
            2 => ErrCode::UnknownGraph,
            3 => ErrCode::ShedDeadline,
            4 => ErrCode::ShedQueueFull,
            5 => ErrCode::NoResult,
            6 => ErrCode::InvalidGraph,
            7 => ErrCode::InvalidDelta,
            8 => ErrCode::Internal,
            _ => return None,
        })
    }

    /// Whether this error is a load-shedding outcome (the request was
    /// well-formed; the server declined it under pressure).
    pub fn is_shed(self) -> bool {
        matches!(self, ErrCode::ShedDeadline | ErrCode::ShedQueueFull)
    }
}

/// Why a frame could not be read or decoded.
#[derive(Debug)]
pub enum WireError {
    /// Transport failure (includes a peer that closed mid-frame).
    Io(std::io::Error),
    /// The connection closed cleanly between frames.
    Closed,
    /// The length prefix exceeded [`MAX_FRAME_LEN`].
    Oversized { len: usize },
    /// The body did not decode: truncated, trailing bytes, bad tag,
    /// inconsistent array lengths, ...
    Malformed(String),
}

impl std::fmt::Display for WireError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WireError::Io(e) => write!(f, "io error: {e}"),
            WireError::Closed => write!(f, "connection closed"),
            WireError::Oversized { len } => {
                write!(
                    f,
                    "frame length {len} exceeds MAX_FRAME_LEN {MAX_FRAME_LEN}"
                )
            }
            WireError::Malformed(m) => write!(f, "malformed frame: {m}"),
        }
    }
}

impl std::error::Error for WireError {}

impl From<std::io::Error> for WireError {
    fn from(e: std::io::Error) -> Self {
        WireError::Io(e)
    }
}

fn malformed(msg: impl Into<String>) -> WireError {
    WireError::Malformed(msg.into())
}

// ---------------------------------------------------------------------------
// Frame transport
// ---------------------------------------------------------------------------

/// Writes one frame. The body is assembled by the caller (see the
/// `encode_*` functions below); this prepends `[len][verb]`.
pub fn write_frame(w: &mut impl Write, verb: u8, body: &[u8]) -> std::io::Result<()> {
    let payload_len = body.len() + 1;
    assert!(payload_len <= MAX_FRAME_LEN, "outgoing frame too large");
    let mut head = [0u8; 5];
    head[..4].copy_from_slice(&(payload_len as u32).to_le_bytes());
    head[4] = verb;
    w.write_all(&head)?;
    w.write_all(body)?;
    w.flush()
}

/// Reads one frame, returning `(verb, body)`. A clean EOF before the
/// first header byte is [`WireError::Closed`]; EOF anywhere later is an
/// [`WireError::Io`] (the peer died mid-frame).
pub fn read_frame(r: &mut impl Read) -> Result<(u8, Vec<u8>), WireError> {
    let mut len_buf = [0u8; 4];
    // Distinguish clean close (0 bytes) from a torn header.
    let mut got = 0;
    while got < 4 {
        match r.read(&mut len_buf[got..])? {
            0 if got == 0 => return Err(WireError::Closed),
            0 => {
                return Err(WireError::Io(std::io::Error::new(
                    std::io::ErrorKind::UnexpectedEof,
                    "eof inside frame header",
                )))
            }
            k => got += k,
        }
    }
    let payload_len = u32::from_le_bytes(len_buf) as usize;
    if payload_len == 0 {
        return Err(malformed("zero-length payload (missing verb byte)"));
    }
    if payload_len > MAX_FRAME_LEN {
        return Err(WireError::Oversized { len: payload_len });
    }
    let mut verb = [0u8; 1];
    r.read_exact(&mut verb)?;
    let mut body = vec![0u8; payload_len - 1];
    r.read_exact(&mut body)?;
    Ok((verb[0], body))
}

// ---------------------------------------------------------------------------
// Body reader: bounds-checked little-endian decoding
// ---------------------------------------------------------------------------

/// Sequential reader over a frame body. Every accessor checks bounds
/// and returns [`WireError::Malformed`] on underrun — the decoder never
/// indexes past the slice, never panics.
pub struct BodyReader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> BodyReader<'a> {
    pub fn new(buf: &'a [u8]) -> Self {
        BodyReader { buf, pos: 0 }
    }

    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    fn take(&mut self, n: usize, what: &str) -> Result<&'a [u8], WireError> {
        if self.remaining() < n {
            return Err(malformed(format!(
                "truncated body: need {n} bytes for {what}, have {}",
                self.remaining()
            )));
        }
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    pub fn u8(&mut self, what: &str) -> Result<u8, WireError> {
        Ok(self.take(1, what)?[0])
    }

    pub fn u16(&mut self, what: &str) -> Result<u16, WireError> {
        Ok(u16::from_le_bytes(self.take(2, what)?.try_into().unwrap()))
    }

    pub fn u32(&mut self, what: &str) -> Result<u32, WireError> {
        Ok(u32::from_le_bytes(self.take(4, what)?.try_into().unwrap()))
    }

    pub fn u64(&mut self, what: &str) -> Result<u64, WireError> {
        Ok(u64::from_le_bytes(self.take(8, what)?.try_into().unwrap()))
    }

    pub fn f64(&mut self, what: &str) -> Result<f64, WireError> {
        Ok(f64::from_le_bytes(self.take(8, what)?.try_into().unwrap()))
    }

    /// `count` u32 values. The length is validated against the bytes
    /// actually present before any allocation.
    pub fn u32_array(&mut self, count: usize, what: &str) -> Result<Vec<u32>, WireError> {
        let bytes = count
            .checked_mul(4)
            .ok_or_else(|| malformed(format!("{what} length overflows")))?;
        let raw = self.take(bytes, what)?;
        Ok(raw
            .chunks_exact(4)
            .map(|c| u32::from_le_bytes(c.try_into().unwrap()))
            .collect())
    }

    /// `count` u64 values, same guarantees as [`BodyReader::u32_array`].
    pub fn u64_array(&mut self, count: usize, what: &str) -> Result<Vec<u64>, WireError> {
        let bytes = count
            .checked_mul(8)
            .ok_or_else(|| malformed(format!("{what} length overflows")))?;
        let raw = self.take(bytes, what)?;
        Ok(raw
            .chunks_exact(8)
            .map(|c| u64::from_le_bytes(c.try_into().unwrap()))
            .collect())
    }

    /// Length-prefixed (u16) UTF-8 string.
    pub fn string(&mut self, what: &str) -> Result<String, WireError> {
        let len = self.u16(what)? as usize;
        let raw = self.take(len, what)?;
        String::from_utf8(raw.to_vec()).map_err(|_| malformed(format!("{what} is not UTF-8")))
    }

    /// Decoding must consume the body exactly; trailing garbage is a
    /// protocol violation, not padding.
    pub fn finish(&self) -> Result<(), WireError> {
        if self.remaining() != 0 {
            return Err(malformed(format!(
                "{} trailing bytes after message",
                self.remaining()
            )));
        }
        Ok(())
    }
}

fn push_u16(out: &mut Vec<u8>, x: u16) {
    out.extend_from_slice(&x.to_le_bytes());
}

fn push_u32(out: &mut Vec<u8>, x: u32) {
    out.extend_from_slice(&x.to_le_bytes());
}

fn push_u64(out: &mut Vec<u8>, x: u64) {
    out.extend_from_slice(&x.to_le_bytes());
}

fn push_string(out: &mut Vec<u8>, s: &str) -> Result<(), WireError> {
    if s.len() > u16::MAX as usize {
        return Err(malformed("string too long for u16 length prefix"));
    }
    push_u16(out, s.len() as u16);
    out.extend_from_slice(s.as_bytes());
    Ok(())
}

// ---------------------------------------------------------------------------
// Message types
// ---------------------------------------------------------------------------

/// The caller's optimization objective, as carried on the wire. Mirrors
/// `gc_service::Objective` (tag 3 carries an explicit colorer name, tag
/// 4 the MinColors post-pass model-time budget in milliseconds).
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum WireObjective {
    Fastest,
    FewestColors,
    Balanced,
    Explicit(String),
    MinColors { budget_ms: u64 },
}

impl WireObjective {
    fn encode(&self, out: &mut Vec<u8>) -> Result<(), WireError> {
        match self {
            WireObjective::Fastest => out.push(0),
            WireObjective::FewestColors => out.push(1),
            WireObjective::Balanced => out.push(2),
            WireObjective::Explicit(name) => {
                out.push(3);
                push_string(out, name)?;
            }
            WireObjective::MinColors { budget_ms } => {
                out.push(4);
                push_u64(out, *budget_ms);
            }
        }
        Ok(())
    }

    fn decode(r: &mut BodyReader<'_>) -> Result<Self, WireError> {
        Ok(match r.u8("objective tag")? {
            0 => WireObjective::Fastest,
            1 => WireObjective::FewestColors,
            2 => WireObjective::Balanced,
            3 => WireObjective::Explicit(r.string("explicit colorer")?),
            4 => WireObjective::MinColors {
                budget_ms: r.u64("min-colors budget_ms")?,
            },
            t => return Err(malformed(format!("unknown objective tag {t}"))),
        })
    }
}

/// SubmitGraph request: a CSR uploaded under a client-chosen graph id.
/// Resubmitting an id replaces the tracked graph (version resets).
#[derive(Clone, Debug, PartialEq)]
pub struct SubmitGraph {
    pub graph_id: u64,
    pub n: u64,
    /// `n + 1` row offsets.
    pub row_offsets: Vec<u64>,
    /// `row_offsets[n]` column indices.
    pub cols: Vec<u32>,
}

impl SubmitGraph {
    pub fn from_csr(graph_id: u64, g: &Csr) -> Self {
        SubmitGraph {
            graph_id,
            n: g.num_vertices() as u64,
            row_offsets: g.row_offsets().iter().map(|&r| r as u64).collect(),
            cols: g.col_indices().to_vec(),
        }
    }

    /// Builds the (validated) CSR. Structural violations become an
    /// error, never a panic — this is the untrusted ingest path.
    pub fn into_csr(self) -> Result<Csr, String> {
        let n = self.n as usize;
        let row_offsets: Vec<usize> = self.row_offsets.iter().map(|&r| r as usize).collect();
        Csr::try_from_raw(n, row_offsets, self.cols)
    }

    pub fn encode(&self) -> Vec<u8> {
        Self::encode_body(
            self.graph_id,
            self.n,
            self.row_offsets.iter().copied(),
            &self.cols,
        )
    }

    /// The body `SubmitGraph::from_csr(graph_id, g).encode()` writes,
    /// straight from the borrowed CSR: the client uploads a graph
    /// without first copying its arrays into a message.
    pub(crate) fn encode_csr(graph_id: u64, g: &Csr) -> Vec<u8> {
        Self::encode_body(
            graph_id,
            g.num_vertices() as u64,
            g.row_offsets().iter().map(|&r| r as u64),
            g.col_indices(),
        )
    }

    /// Writes the header, then both arrays into a pre-sized buffer.
    fn encode_body(
        graph_id: u64,
        n: u64,
        row_offsets: impl ExactSizeIterator<Item = u64>,
        cols: &[u32],
    ) -> Vec<u8> {
        let offsets_bytes = row_offsets.len() * 8;
        let mut out = Vec::with_capacity(24 + offsets_bytes + cols.len() * 4);
        push_u64(&mut out, graph_id);
        push_u64(&mut out, n);
        push_u64(&mut out, cols.len() as u64);
        let start = out.len();
        out.resize(start + offsets_bytes + cols.len() * 4, 0);
        let (offsets_out, cols_out) = out[start..].split_at_mut(offsets_bytes);
        for (bytes, r) in offsets_out.chunks_exact_mut(8).zip(row_offsets) {
            bytes.copy_from_slice(&r.to_le_bytes());
        }
        for (bytes, &c) in cols_out.chunks_exact_mut(4).zip(cols) {
            bytes.copy_from_slice(&c.to_le_bytes());
        }
        out
    }

    pub fn decode(body: &[u8]) -> Result<Self, WireError> {
        let mut r = BodyReader::new(body);
        let graph_id = r.u64("graph_id")?;
        let n = r.u64("n")?;
        let nnz = r.u64("nnz")?;
        // Cross-check claimed sizes against the bytes actually present
        // before allocating: a forged (n, nnz) cannot cost more memory
        // than the attacker paid in bandwidth.
        let offsets_len = n.checked_add(1).ok_or_else(|| malformed("n overflows"))? as usize;
        let expect = (offsets_len as u64)
            .checked_mul(8)
            .and_then(|o| o.checked_add(nnz.checked_mul(4)?))
            .ok_or_else(|| malformed("submit_graph size overflows"))?;
        if expect != r.remaining() as u64 {
            return Err(malformed(format!(
                "submit_graph arrays claim {expect} bytes, body has {}",
                r.remaining()
            )));
        }
        let row_offsets = r.u64_array(offsets_len, "row_offsets")?;
        let cols = r.u32_array(nnz as usize, "col_indices")?;
        r.finish()?;
        Ok(SubmitGraph {
            graph_id,
            n,
            row_offsets,
            cols,
        })
    }
}

/// SubmitGraph acknowledgment.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SubmitGraphAck {
    pub graph_id: u64,
    /// Starts at 0; each MutateEdges bumps it.
    pub version: u64,
    /// Structural fingerprint of the uploaded CSR — the root of the
    /// graph's version lineage.
    pub fingerprint: u64,
}

impl SubmitGraphAck {
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(24);
        push_u64(&mut out, self.graph_id);
        push_u64(&mut out, self.version);
        push_u64(&mut out, self.fingerprint);
        out
    }

    pub fn decode(body: &[u8]) -> Result<Self, WireError> {
        let mut r = BodyReader::new(body);
        let ack = SubmitGraphAck {
            graph_id: r.u64("graph_id")?,
            version: r.u64("version")?,
            fingerprint: r.u64("fingerprint")?,
        };
        r.finish()?;
        Ok(ack)
    }
}

/// Color request against a previously submitted graph.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ColorReq {
    pub graph_id: u64,
    pub objective: WireObjective,
    pub seed: u64,
    /// 0 means no deadline.
    pub deadline_ms: u32,
}

impl ColorReq {
    pub fn encode(&self) -> Result<Vec<u8>, WireError> {
        let mut out = Vec::with_capacity(24);
        push_u64(&mut out, self.graph_id);
        self.objective.encode(&mut out)?;
        push_u64(&mut out, self.seed);
        push_u32(&mut out, self.deadline_ms);
        Ok(out)
    }

    pub fn decode(body: &[u8]) -> Result<Self, WireError> {
        let mut r = BodyReader::new(body);
        let req = ColorReq {
            graph_id: r.u64("graph_id")?,
            objective: WireObjective::decode(&mut r)?,
            seed: r.u64("seed")?,
            deadline_ms: r.u32("deadline_ms")?,
        };
        r.finish()?;
        Ok(req)
    }
}

/// Color response: the run's summary. The coloring itself stays on the
/// server (fetch with GetResult) so high-rate benchmarking traffic is
/// not dominated by `n`-sized payloads.
#[derive(Clone, Debug, PartialEq)]
pub struct ColorSummary {
    pub graph_id: u64,
    /// Graph version the coloring applies to.
    pub version: u64,
    pub num_colors: u32,
    pub colorer: String,
    pub cache_hit: bool,
    pub verified: bool,
    pub model_ms: f64,
    pub iterations: u32,
    /// Simulated thread executions of the run (0 on a cache hit — a
    /// hit executes nothing).
    pub thread_executions: u64,
    pub devices: u32,
    /// Colors before the MinColors reduction post-pass (0 when no
    /// post-pass ran).
    pub colors_before: u32,
    /// Colors after the post-pass (0 when no post-pass ran).
    pub colors_after: u32,
    /// Reduction sweeps the post-pass executed (0 when none ran).
    pub reduction_passes: u32,
}

impl ColorSummary {
    pub fn encode(&self) -> Result<Vec<u8>, WireError> {
        let mut out = Vec::with_capacity(64);
        push_u64(&mut out, self.graph_id);
        push_u64(&mut out, self.version);
        push_u32(&mut out, self.num_colors);
        push_string(&mut out, &self.colorer)?;
        out.push(self.cache_hit as u8);
        out.push(self.verified as u8);
        out.extend_from_slice(&self.model_ms.to_le_bytes());
        push_u32(&mut out, self.iterations);
        push_u64(&mut out, self.thread_executions);
        push_u32(&mut out, self.devices);
        push_u32(&mut out, self.colors_before);
        push_u32(&mut out, self.colors_after);
        push_u32(&mut out, self.reduction_passes);
        Ok(out)
    }

    pub fn decode(body: &[u8]) -> Result<Self, WireError> {
        let mut r = BodyReader::new(body);
        let s = ColorSummary {
            graph_id: r.u64("graph_id")?,
            version: r.u64("version")?,
            num_colors: r.u32("num_colors")?,
            colorer: r.string("colorer")?,
            cache_hit: r.u8("cache_hit")? != 0,
            verified: r.u8("verified")? != 0,
            model_ms: r.f64("model_ms")?,
            iterations: r.u32("iterations")?,
            thread_executions: r.u64("thread_executions")?,
            devices: r.u32("devices")?,
            colors_before: r.u32("colors_before")?,
            colors_after: r.u32("colors_after")?,
            reduction_passes: r.u32("reduction_passes")?,
        };
        r.finish()?;
        Ok(s)
    }
}

/// GetResult request.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct GetResult {
    pub graph_id: u64,
}

impl GetResult {
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(8);
        push_u64(&mut out, self.graph_id);
        out
    }

    pub fn decode(body: &[u8]) -> Result<Self, WireError> {
        let mut r = BodyReader::new(body);
        let g = GetResult {
            graph_id: r.u64("graph_id")?,
        };
        r.finish()?;
        Ok(g)
    }
}

/// GetResult response: the stored coloring for the graph's current
/// version.
///
/// The body is `graph_id u64, version u64, num_colors u32, n u64,
/// width u8`, then the `n` colors at `width` bytes each. The width is 1,
/// 2 or 4, the narrowest that holds the largest color, so a coloring
/// with at most 255 colors ships one byte per vertex.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ResultPayload {
    pub graph_id: u64,
    pub version: u64,
    pub num_colors: u32,
    pub colors: Vec<u32>,
}

/// Bytes of a [`ResultPayload`] body before its colors: four header
/// fields and the width byte.
const RESULT_HEADER_LEN: usize = 29;

/// Bytes per color on the wire: the narrowest of 1, 2 or 4 that holds
/// every color. The OR of the colors has the maximum's top set bit; on
/// baseline x86-64 the fold is one `por` per vector, where an unsigned
/// `max` needs a compare-and-select sequence (SSE2 has no `pmaxud`).
fn color_width(colors: &[u32]) -> usize {
    match colors.iter().fold(0, |acc, &c| acc | c) {
        0..=0xFF => 1,
        0x100..=0xFFFF => 2,
        _ => 4,
    }
}

impl ResultPayload {
    pub fn encode(&self) -> Vec<u8> {
        Self::encode_parts(self.graph_id, self.version, self.num_colors, &self.colors)
    }

    /// The body [`ResultPayload::encode`] writes, from a borrowed color
    /// array: the server encodes a stored coloring straight into the
    /// frame body, narrowing each color to the payload's width, with no
    /// owned copy in between.
    pub fn encode_parts(graph_id: u64, version: u64, num_colors: u32, colors: &[u32]) -> Vec<u8> {
        let width = color_width(colors);
        let mut out = Vec::with_capacity(RESULT_HEADER_LEN + colors.len() * width);
        push_u64(&mut out, graph_id);
        push_u64(&mut out, version);
        push_u32(&mut out, num_colors);
        push_u64(&mut out, colors.len() as u64);
        out.push(width as u8);
        let start = out.len();
        out.resize(start + colors.len() * width, 0);
        let body = &mut out[start..];
        // `color_width` guarantees every `as` below keeps the value.
        match width {
            1 => {
                for (byte, &c) in body.iter_mut().zip(colors) {
                    *byte = c as u8;
                }
            }
            2 => {
                for (bytes, &c) in body.chunks_exact_mut(2).zip(colors) {
                    bytes.copy_from_slice(&(c as u16).to_le_bytes());
                }
            }
            _ => {
                for (bytes, &c) in body.chunks_exact_mut(4).zip(colors) {
                    bytes.copy_from_slice(&c.to_le_bytes());
                }
            }
        }
        out
    }

    pub fn decode(body: &[u8]) -> Result<Self, WireError> {
        let mut r = BodyReader::new(body);
        let graph_id = r.u64("graph_id")?;
        let version = r.u64("version")?;
        let num_colors = r.u32("num_colors")?;
        let n = r.u64("n")?;
        let width = r.u8("color width")?;
        if !matches!(width, 1 | 2 | 4) {
            return Err(malformed(format!("color width {width} is not 1, 2 or 4")));
        }
        let bytes = n
            .checked_mul(width as u64)
            .ok_or_else(|| malformed("colors array length overflows"))?;
        if bytes != r.remaining() as u64 {
            return Err(malformed(format!(
                "{n} colors of {width} bytes claim {bytes} bytes, body has {}",
                r.remaining()
            )));
        }
        let raw = r.take(bytes as usize, "colors")?;
        let colors = match width {
            1 => raw.iter().map(|&b| b as u32).collect(),
            2 => raw
                .chunks_exact(2)
                .map(|c| u16::from_le_bytes([c[0], c[1]]) as u32)
                .collect(),
            _ => raw
                .chunks_exact(4)
                .map(|c| u32::from_le_bytes(c.try_into().unwrap()))
                .collect(),
        };
        r.finish()?;
        Ok(ResultPayload {
            graph_id,
            version,
            num_colors,
            colors,
        })
    }
}

/// MutateEdges request: a batched edge delta against the graph's
/// current version. Pairs are undirected; order within a pair is
/// irrelevant.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct MutateEdges {
    pub graph_id: u64,
    pub insert: Vec<(u32, u32)>,
    pub delete: Vec<(u32, u32)>,
}

impl MutateEdges {
    pub fn to_delta(&self) -> EdgeDelta {
        EdgeDelta {
            insert: self.insert.clone(),
            delete: self.delete.clone(),
        }
    }

    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(16 + (self.insert.len() + self.delete.len()) * 8);
        push_u64(&mut out, self.graph_id);
        push_u32(&mut out, self.insert.len() as u32);
        push_u32(&mut out, self.delete.len() as u32);
        for &(u, v) in self.insert.iter().chain(&self.delete) {
            push_u32(&mut out, u);
            push_u32(&mut out, v);
        }
        out
    }

    pub fn decode(body: &[u8]) -> Result<Self, WireError> {
        let mut r = BodyReader::new(body);
        let graph_id = r.u64("graph_id")?;
        let n_ins = r.u32("insert count")? as u64;
        let n_del = r.u32("delete count")? as u64;
        let expect = n_ins
            .checked_add(n_del)
            .and_then(|p| p.checked_mul(8))
            .ok_or_else(|| malformed("delta size overflows"))?;
        if expect != r.remaining() as u64 {
            return Err(malformed(format!(
                "delta claims {expect} bytes of pairs, body has {}",
                r.remaining()
            )));
        }
        let mut pairs = r.u32_array((n_ins + n_del) as usize * 2, "edge pairs")?;
        r.finish()?;
        let del_pairs = pairs.split_off(n_ins as usize * 2);
        let collect = |flat: &[u32]| flat.chunks_exact(2).map(|c| (c[0], c[1])).collect();
        Ok(MutateEdges {
            graph_id,
            insert: collect(&pairs),
            delete: collect(&del_pairs),
        })
    }
}

/// MutateEdges response: what the delta did and what the incremental
/// repair cost.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct MutateAck {
    pub graph_id: u64,
    pub version: u64,
    /// Lineage fingerprint of the new version.
    pub fingerprint: u64,
    /// Undirected edges actually inserted / deleted (no-ops excluded).
    pub inserted: u32,
    pub deleted: u32,
    /// Vertices that entered the repair frontier (0 when the graph had
    /// no stored coloring to repair).
    pub frontier: u32,
    /// Speculate-recolor rounds the repair took.
    pub repair_rounds: u32,
    /// Vertices the repair recolored.
    pub recolored: u32,
    /// Simulated thread executions the incremental repair cost — the
    /// number the ≥5×-cheaper-than-full-recolor claim is checked
    /// against.
    pub repair_thread_executions: u64,
    /// Colors used by the repaired coloring (0 when nothing to repair).
    pub num_colors: u32,
    /// Whether a cached result was carried to the new version.
    pub revalidated: bool,
}

impl MutateAck {
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(64);
        push_u64(&mut out, self.graph_id);
        push_u64(&mut out, self.version);
        push_u64(&mut out, self.fingerprint);
        push_u32(&mut out, self.inserted);
        push_u32(&mut out, self.deleted);
        push_u32(&mut out, self.frontier);
        push_u32(&mut out, self.repair_rounds);
        push_u32(&mut out, self.recolored);
        push_u64(&mut out, self.repair_thread_executions);
        push_u32(&mut out, self.num_colors);
        out.push(self.revalidated as u8);
        out
    }

    pub fn decode(body: &[u8]) -> Result<Self, WireError> {
        let mut r = BodyReader::new(body);
        let a = MutateAck {
            graph_id: r.u64("graph_id")?,
            version: r.u64("version")?,
            fingerprint: r.u64("fingerprint")?,
            inserted: r.u32("inserted")?,
            deleted: r.u32("deleted")?,
            frontier: r.u32("frontier")?,
            repair_rounds: r.u32("repair_rounds")?,
            recolored: r.u32("recolored")?,
            repair_thread_executions: r.u64("repair_thread_executions")?,
            num_colors: r.u32("num_colors")?,
            revalidated: r.u8("revalidated")? != 0,
        };
        r.finish()?;
        Ok(a)
    }
}

/// SubscribeStats request: stream `ticks` stats frames, one every
/// `interval_ms` (the first immediately).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SubscribeStats {
    pub ticks: u32,
    pub interval_ms: u32,
}

impl SubscribeStats {
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(8);
        push_u32(&mut out, self.ticks);
        push_u32(&mut out, self.interval_ms);
        out
    }

    pub fn decode(body: &[u8]) -> Result<Self, WireError> {
        let mut r = BodyReader::new(body);
        let s = SubscribeStats {
            ticks: r.u32("ticks")?,
            interval_ms: r.u32("interval_ms")?,
        };
        r.finish()?;
        if s.ticks == 0 || s.ticks > MAX_STATS_TICKS {
            return Err(malformed(format!(
                "ticks must be 1..={MAX_STATS_TICKS}, got {}",
                s.ticks
            )));
        }
        Ok(s)
    }
}

/// One stats frame: a snapshot of the service counters plus the
/// server's own request accounting.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct StatsTick {
    /// Index of this tick within the subscription, 0-based.
    pub tick: u32,
    pub submitted: u64,
    pub served: u64,
    pub cache_hits: u64,
    pub revalidated: u64,
    pub shed_deadline: u64,
    pub shed_queue_full: u64,
    pub failed: u64,
    pub queued: u64,
    pub in_flight: u64,
    /// Graphs currently tracked by the server.
    pub graphs: u64,
    /// Frames the server has decoded successfully, lifetime.
    pub frames_ok: u64,
    /// Frames rejected as malformed/oversized, lifetime.
    pub frames_bad: u64,
    /// Requests served through the multi-device sharded path, lifetime.
    pub sharded: u64,
    /// Halo-exchange rounds summed over all sharded requests.
    pub halo_rounds: u64,
    /// Boundary vertices recolored during conflict resolution, summed
    /// over all sharded requests.
    pub changed_boundary: u64,
    /// Device-to-device bytes the delta halo exchange actually moved,
    /// summed over all sharded requests.
    pub halo_bytes_delta: u64,
    /// Mean halo-transfer overlap ratio over sharded requests, in
    /// permille (0..=1000) so the frame stays integer-only.
    pub overlap_permille: u64,
}

impl StatsTick {
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(100);
        push_u32(&mut out, self.tick);
        for x in [
            self.submitted,
            self.served,
            self.cache_hits,
            self.revalidated,
            self.shed_deadline,
            self.shed_queue_full,
            self.failed,
            self.queued,
            self.in_flight,
            self.graphs,
            self.frames_ok,
            self.frames_bad,
            self.sharded,
            self.halo_rounds,
            self.changed_boundary,
            self.halo_bytes_delta,
            self.overlap_permille,
        ] {
            push_u64(&mut out, x);
        }
        out
    }

    pub fn decode(body: &[u8]) -> Result<Self, WireError> {
        let mut r = BodyReader::new(body);
        let t = StatsTick {
            tick: r.u32("tick")?,
            submitted: r.u64("submitted")?,
            served: r.u64("served")?,
            cache_hits: r.u64("cache_hits")?,
            revalidated: r.u64("revalidated")?,
            shed_deadline: r.u64("shed_deadline")?,
            shed_queue_full: r.u64("shed_queue_full")?,
            failed: r.u64("failed")?,
            queued: r.u64("queued")?,
            in_flight: r.u64("in_flight")?,
            graphs: r.u64("graphs")?,
            frames_ok: r.u64("frames_ok")?,
            frames_bad: r.u64("frames_bad")?,
            sharded: r.u64("sharded")?,
            halo_rounds: r.u64("halo_rounds")?,
            changed_boundary: r.u64("changed_boundary")?,
            halo_bytes_delta: r.u64("halo_bytes_delta")?,
            overlap_permille: r.u64("overlap_permille")?,
        };
        r.finish()?;
        Ok(t)
    }
}

/// Error frame payload.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ErrorFrame {
    pub code: ErrCode,
    pub message: String,
}

impl ErrorFrame {
    pub fn new(code: ErrCode, message: impl Into<String>) -> Self {
        ErrorFrame {
            code,
            message: message.into(),
        }
    }

    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(4 + self.message.len());
        push_u16(&mut out, self.code as u16);
        // Truncate to the u16 length prefix without splitting a UTF-8
        // character.
        let mut end = self.message.len().min(u16::MAX as usize);
        while !self.message.is_char_boundary(end) {
            end -= 1;
        }
        let _ = push_string(&mut out, &self.message[..end]);
        out
    }

    pub fn decode(body: &[u8]) -> Result<Self, WireError> {
        let mut r = BodyReader::new(body);
        let raw = r.u16("error code")?;
        let code =
            ErrCode::from_u16(raw).ok_or_else(|| malformed(format!("unknown error code {raw}")))?;
        let message = r.string("error message")?;
        r.finish()?;
        Ok(ErrorFrame { code, message })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gc_graph::generators::{cycle, grid2d, Stencil2d};
    use gc_graph::GraphBuilder;
    use proptest::prelude::*;

    #[test]
    fn frame_roundtrip() {
        let mut buf = Vec::new();
        write_frame(&mut buf, VERB_COLOR, &[1, 2, 3]).unwrap();
        let (verb, body) = read_frame(&mut buf.as_slice()).unwrap();
        assert_eq!(verb, VERB_COLOR);
        assert_eq!(body, vec![1, 2, 3]);
    }

    #[test]
    fn clean_close_vs_torn_frame() {
        let empty: &[u8] = &[];
        assert!(matches!(read_frame(&mut { empty }), Err(WireError::Closed)));
        // A torn header (2 of 4 length bytes) is an IO error, not Closed.
        let torn: &[u8] = &[5, 0];
        assert!(matches!(read_frame(&mut { torn }), Err(WireError::Io(_))));
    }

    #[test]
    fn oversized_frame_rejected_before_allocation() {
        let mut buf = Vec::new();
        buf.extend_from_slice(&(u32::MAX).to_le_bytes());
        buf.push(VERB_COLOR);
        match read_frame(&mut buf.as_slice()) {
            Err(WireError::Oversized { len }) => assert_eq!(len, u32::MAX as usize),
            other => panic!("expected Oversized, got {other:?}"),
        }
    }

    #[test]
    fn zero_payload_is_malformed() {
        let mut buf = Vec::new();
        buf.extend_from_slice(&0u32.to_le_bytes());
        assert!(matches!(
            read_frame(&mut buf.as_slice()),
            Err(WireError::Malformed(_))
        ));
    }

    #[test]
    fn submit_graph_roundtrip_and_ingest() {
        let g = cycle(16);
        let msg = SubmitGraph::from_csr(7, &g);
        let decoded = SubmitGraph::decode(&msg.encode()).unwrap();
        assert_eq!(decoded, msg);
        let back = decoded.into_csr().unwrap();
        assert_eq!(back, g);
    }

    #[test]
    fn encode_csr_matches_the_message_encoding() {
        let graphs = [
            cycle(16),
            grid2d(9, 7, Stencil2d::NinePoint),
            GraphBuilder::new(5).edges([(0, 4)]).build(),
            GraphBuilder::new(0).build(),
        ];
        for (id, g) in graphs.iter().enumerate() {
            let id = id as u64 + 3;
            assert_eq!(
                SubmitGraph::encode_csr(id, g),
                SubmitGraph::from_csr(id, g).encode(),
                "graph {id}"
            );
        }
    }

    #[test]
    fn submit_graph_length_forgery_rejected() {
        let g = cycle(8);
        let mut body = SubmitGraph::from_csr(1, &g).encode();
        // Claim twice the vertices without sending the bytes.
        body[8..16].copy_from_slice(&16u64.to_le_bytes());
        assert!(matches!(
            SubmitGraph::decode(&body),
            Err(WireError::Malformed(_))
        ));
    }

    #[test]
    fn color_req_roundtrip_all_objectives() {
        for obj in [
            WireObjective::Fastest,
            WireObjective::FewestColors,
            WireObjective::Balanced,
            WireObjective::Explicit("Naumov/Color_CC".into()),
            WireObjective::MinColors { budget_ms: 25 },
        ] {
            let req = ColorReq {
                graph_id: 3,
                objective: obj.clone(),
                seed: 42,
                deadline_ms: 250,
            };
            let decoded = ColorReq::decode(&req.encode().unwrap()).unwrap();
            assert_eq!(decoded, req);
        }
    }

    #[test]
    fn color_summary_roundtrip_carries_post_pass_fields() {
        let s = ColorSummary {
            graph_id: 5,
            version: 2,
            num_colors: 6,
            colorer: "Naumov/Color_CC".into(),
            cache_hit: false,
            verified: true,
            model_ms: 1.75,
            iterations: 6,
            thread_executions: 123_456,
            devices: 1,
            colors_before: 25,
            colors_after: 6,
            reduction_passes: 2,
        };
        assert_eq!(ColorSummary::decode(&s.encode().unwrap()).unwrap(), s);
        // Pre-quality-tier frames (without the three post-pass u32s)
        // must no longer parse.
        let mut short = s.encode().unwrap();
        short.truncate(short.len() - 3 * 4);
        assert!(ColorSummary::decode(&short).is_err());
    }

    #[test]
    fn mutate_and_ack_roundtrip() {
        let m = MutateEdges {
            graph_id: 9,
            insert: vec![(0, 5), (2, 3)],
            delete: vec![(1, 4)],
        };
        assert_eq!(MutateEdges::decode(&m.encode()).unwrap(), m);
        let a = MutateAck {
            graph_id: 9,
            version: 4,
            fingerprint: 0xDEAD,
            inserted: 2,
            deleted: 1,
            frontier: 6,
            repair_rounds: 2,
            recolored: 3,
            repair_thread_executions: 123,
            num_colors: 5,
            revalidated: true,
        };
        assert_eq!(MutateAck::decode(&a.encode()).unwrap(), a);
    }

    #[test]
    fn result_payload_roundtrip() {
        let p = ResultPayload {
            graph_id: 2,
            version: 1,
            num_colors: 3,
            colors: vec![1, 2, 3, 1],
        };
        assert_eq!(ResultPayload::decode(&p.encode()).unwrap(), p);
    }

    fn payload(colors: Vec<u32>) -> ResultPayload {
        ResultPayload {
            graph_id: 11,
            version: 4,
            num_colors: 3,
            colors,
        }
    }

    fn assert_malformed(body: &[u8], what: &str) {
        match ResultPayload::decode(body) {
            Err(WireError::Malformed(_)) => {}
            other => panic!("{what}: expected Malformed, got {other:?}"),
        }
    }

    #[test]
    fn result_width_byte_must_be_1_2_or_4() {
        let body = payload(vec![1, 2, 3, 1]).encode();
        assert_eq!(body[RESULT_HEADER_LEN - 1], 1);
        for width in [0u8, 3, 8] {
            let mut bad = body.clone();
            bad[RESULT_HEADER_LEN - 1] = width;
            assert_malformed(&bad, &format!("width {width}"));
        }
    }

    #[test]
    fn result_colors_must_fill_the_body_exactly() {
        for colors in [vec![1, 2, 3], vec![300, 2], vec![70_000]] {
            let body = payload(colors).encode();
            let mut long = body.clone();
            long.push(0);
            assert_malformed(&long, "one byte past n × width");
            assert_malformed(&body[..body.len() - 1], "one byte short of n × width");
            let mut forged = body.clone();
            let n = u64::from_le_bytes(forged[20..28].try_into().unwrap());
            forged[20..28].copy_from_slice(&(n + 1).to_le_bytes());
            assert_malformed(&forged, "n one past the colors sent");
        }
        // n × width overflows u64: rejected before any allocation.
        for (n, width) in [(u64::MAX, 4u8), (u64::MAX / 2 + 1, 2), (u64::MAX, 2)] {
            let mut body = payload(Vec::new()).encode();
            body[20..28].copy_from_slice(&n.to_le_bytes());
            body[RESULT_HEADER_LEN - 1] = width;
            body.extend_from_slice(&[1; 8]);
            assert_malformed(&body, &format!("n = {n}, width {width}"));
        }
    }

    /// A body in the format before width tags (a `u32` per color, no
    /// width byte) is a typed error, never a misread coloring.
    #[test]
    fn result_body_without_a_width_byte_is_malformed() {
        for colors in [
            vec![],
            vec![1],
            vec![1, 2, 3],
            vec![2, 1, 4, 3],
            vec![300; 5],
        ] {
            let mut old = Vec::new();
            push_u64(&mut old, 11);
            push_u64(&mut old, 4);
            push_u32(&mut old, 3);
            push_u64(&mut old, colors.len() as u64);
            for &c in &colors {
                push_u32(&mut old, c);
            }
            assert_malformed(&old, &format!("old-format body of {colors:?}"));
        }
    }

    /// Colors whose largest value falls in `band`: 0 the empty coloring,
    /// 1 at most 255, 2 in 256..=65,535, 3 above 65,535. Returns the
    /// colors and the width the encoder must pick.
    fn colors_in_band() -> impl Strategy<Value = (Vec<u32>, usize)> {
        (
            0usize..4,
            proptest::collection::vec(any::<u32>(), 1..96),
            any::<usize>(),
            any::<u32>(),
        )
            .prop_map(|(band, raw, at, top)| {
                let (limit, floor, width) = match band {
                    0 => return (Vec::new(), 1),
                    1 => (0xFF, 0, 1),
                    2 => (0xFFFF, 0x100, 2),
                    _ => (u32::MAX, 0x1_0000, 4),
                };
                let below = |x: u32, m: u32| (x as u64 % (m as u64 + 1)) as u32;
                let mut colors: Vec<u32> = raw.into_iter().map(|c| below(c, limit)).collect();
                let k = at % colors.len();
                colors[k] = floor + below(top, limit - floor);
                (colors, width)
            })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        #[test]
        fn result_payload_roundtrips_at_every_width(
            (colors, width) in colors_in_band(),
        ) {
            let p = payload(colors);
            prop_assert_eq!(color_width(&p.colors), width);
            let body = p.encode();
            prop_assert_eq!(body.len(), RESULT_HEADER_LEN + p.colors.len() * width);
            prop_assert_eq!(body[RESULT_HEADER_LEN - 1] as usize, width);
            prop_assert_eq!(ResultPayload::decode(&body).unwrap(), p);
        }
    }

    #[test]
    fn stats_roundtrip_and_tick_bounds() {
        let s = SubscribeStats {
            ticks: 4,
            interval_ms: 10,
        };
        assert_eq!(SubscribeStats::decode(&s.encode()).unwrap(), s);
        let zero = SubscribeStats {
            ticks: 0,
            interval_ms: 10,
        };
        assert!(SubscribeStats::decode(&zero.encode()).is_err());
        let huge = SubscribeStats {
            ticks: MAX_STATS_TICKS + 1,
            interval_ms: 10,
        };
        assert!(SubscribeStats::decode(&huge.encode()).is_err());
        let t = StatsTick {
            tick: 1,
            served: 10,
            sharded: 3,
            halo_rounds: 7,
            changed_boundary: 42,
            halo_bytes_delta: 1536,
            overlap_permille: 640,
            ..StatsTick::default()
        };
        assert_eq!(StatsTick::decode(&t.encode()).unwrap(), t);
        // Pre-shard-telemetry frames (12 u64s) must no longer parse:
        // truncating the last five fields is a malformed frame, not a
        // silently-zeroed one.
        let mut short = t.encode();
        short.truncate(short.len() - 5 * 8);
        assert!(StatsTick::decode(&short).is_err());
    }

    #[test]
    fn error_frame_roundtrip() {
        let e = ErrorFrame::new(ErrCode::ShedQueueFull, "queue full");
        let decoded = ErrorFrame::decode(&e.encode()).unwrap();
        assert_eq!(decoded, e);
        assert!(decoded.code.is_shed());
        assert!(!ErrCode::Malformed.is_shed());
    }

    #[test]
    fn trailing_bytes_are_malformed() {
        let mut body = GetResult { graph_id: 1 }.encode();
        body.push(0xFF);
        assert!(matches!(
            GetResult::decode(&body),
            Err(WireError::Malformed(_))
        ));
    }
}
