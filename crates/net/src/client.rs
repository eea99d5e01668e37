//! Typed client for the gc-net wire protocol.
//!
//! [`NetClient`] wraps one TCP connection; each method sends one request
//! frame and reads the reply (or, for [`NetClient::subscribe_stats`],
//! the reply stream). Requests on a connection are strictly ordered —
//! open more clients for concurrency; the server gives each connection
//! its own thread. Server-reported failures come back as
//! [`NetError::Remote`] with the wire [`ErrCode`], so callers can
//! distinguish load-shedding from protocol misuse.

use std::io::{BufReader, BufWriter};
use std::net::{TcpStream, ToSocketAddrs};
use std::time::Duration;

use gc_graph::{Csr, EdgeDelta};

use crate::wire::*;

/// Why a client call failed.
#[derive(Debug)]
pub enum NetError {
    /// Transport or framing failure.
    Wire(WireError),
    /// The server answered with an error frame.
    Remote { code: ErrCode, message: String },
    /// The server answered with a frame of an unexpected verb.
    UnexpectedVerb { got: u8, want: u8 },
}

impl std::fmt::Display for NetError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            NetError::Wire(e) => write!(f, "wire error: {e}"),
            NetError::Remote { code, message } => {
                write!(f, "server error {code:?}: {message}")
            }
            NetError::UnexpectedVerb { got, want } => write!(
                f,
                "expected {} frame, got {}",
                verb_name(*want),
                verb_name(*got)
            ),
        }
    }
}

impl std::error::Error for NetError {}

impl From<WireError> for NetError {
    fn from(e: WireError) -> Self {
        NetError::Wire(e)
    }
}

impl From<std::io::Error> for NetError {
    fn from(e: std::io::Error) -> Self {
        NetError::Wire(WireError::Io(e))
    }
}

impl NetError {
    /// Whether the failure was the server shedding load (deadline or
    /// queue-full) rather than an error proper.
    pub fn is_shed(&self) -> bool {
        matches!(self, NetError::Remote { code, .. } if code.is_shed())
    }

    pub fn remote_code(&self) -> Option<ErrCode> {
        match self {
            NetError::Remote { code, .. } => Some(*code),
            _ => None,
        }
    }
}

/// One connection to a gc-net server.
pub struct NetClient {
    reader: BufReader<TcpStream>,
    writer: BufWriter<TcpStream>,
}

impl NetClient {
    pub fn connect(addr: impl ToSocketAddrs) -> std::io::Result<Self> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        let reader = BufReader::new(stream.try_clone()?);
        Ok(NetClient {
            reader,
            writer: BufWriter::new(stream),
        })
    }

    /// Bounds how long a single reply may take; `None` blocks forever.
    pub fn set_read_timeout(&self, timeout: Option<Duration>) -> std::io::Result<()> {
        self.reader.get_ref().set_read_timeout(timeout)
    }

    /// One request/reply exchange, checking the reply verb and
    /// surfacing error frames.
    fn call(&mut self, verb: u8, body: &[u8], want: u8) -> Result<Vec<u8>, NetError> {
        write_frame(&mut self.writer, verb, body).map_err(WireError::Io)?;
        self.read_reply(want)
    }

    fn read_reply(&mut self, want: u8) -> Result<Vec<u8>, NetError> {
        let (got, reply) = read_frame(&mut self.reader)?;
        if got == VERB_ERROR {
            let e = ErrorFrame::decode(&reply)?;
            return Err(NetError::Remote {
                code: e.code,
                message: e.message,
            });
        }
        if got != want {
            return Err(NetError::UnexpectedVerb { got, want });
        }
        Ok(reply)
    }

    /// Uploads `graph` under `graph_id` (replacing any previous graph
    /// with that id). Returns the id, version 0, and the structural
    /// fingerprint rooting the version lineage.
    pub fn submit_graph(&mut self, graph_id: u64, graph: &Csr) -> Result<SubmitGraphAck, NetError> {
        let body = SubmitGraph::encode_csr(graph_id, graph);
        let reply = self.call(VERB_SUBMIT_GRAPH, &body, VERB_SUBMIT_GRAPH_OK)?;
        Ok(SubmitGraphAck::decode(&reply)?)
    }

    /// Colors the tracked graph. `deadline_ms == 0` means no deadline.
    pub fn color(
        &mut self,
        graph_id: u64,
        objective: WireObjective,
        seed: u64,
        deadline_ms: u32,
    ) -> Result<ColorSummary, NetError> {
        let msg = ColorReq {
            graph_id,
            objective,
            seed,
            deadline_ms,
        };
        let reply = self.call(VERB_COLOR, &msg.encode()?, VERB_COLOR_OK)?;
        Ok(ColorSummary::decode(&reply)?)
    }

    /// Fetches the stored coloring of the graph's current version.
    pub fn get_result(&mut self, graph_id: u64) -> Result<ResultPayload, NetError> {
        let msg = GetResult { graph_id };
        let reply = self.call(VERB_GET_RESULT, &msg.encode(), VERB_GET_RESULT_OK)?;
        Ok(ResultPayload::decode(&reply)?)
    }

    /// Applies a batched edge delta; the server repairs its stored
    /// coloring incrementally and revalidates the result cache.
    pub fn mutate_edges(
        &mut self,
        graph_id: u64,
        delta: &EdgeDelta,
    ) -> Result<MutateAck, NetError> {
        let msg = MutateEdges {
            graph_id,
            insert: delta.insert.clone(),
            delete: delta.delete.clone(),
        };
        let reply = self.call(VERB_MUTATE_EDGES, &msg.encode(), VERB_MUTATE_EDGES_OK)?;
        Ok(MutateAck::decode(&reply)?)
    }

    /// Streams `ticks` stats snapshots, one every `interval_ms` (the
    /// first immediately). Blocks until the stream completes.
    pub fn subscribe_stats(
        &mut self,
        ticks: u32,
        interval_ms: u32,
    ) -> Result<Vec<StatsTick>, NetError> {
        let msg = SubscribeStats { ticks, interval_ms };
        write_frame(&mut self.writer, VERB_SUBSCRIBE_STATS, &msg.encode())
            .map_err(WireError::Io)?;
        let mut out = Vec::with_capacity(ticks as usize);
        for _ in 0..ticks {
            let reply = self.read_reply(VERB_STATS_TICK)?;
            out.push(StatsTick::decode(&reply)?);
        }
        Ok(out)
    }

    /// Asks the server to shut down cleanly. The server acks, stops
    /// accepting connections, and its `join` returns.
    pub fn shutdown_server(&mut self) -> Result<(), NetError> {
        self.call(VERB_SHUTDOWN, &[], VERB_SHUTDOWN_OK)?;
        Ok(())
    }
}
