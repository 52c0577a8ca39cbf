//! The client side of `mpf_serve`'s line protocol: one closed-loop
//! connection, and a parser for `OK … ROW … END` replies.

use std::collections::BTreeMap;
use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::os::linux::net::TcpStreamExt;
use std::time::Duration;

/// A request that gets no reply for this long counts as failed.
const REPLY_TIMEOUT: Duration = Duration::from_secs(30);
/// Bytes asked of the socket per read.
const READ_CHUNK: usize = 16 << 10;

/// How the client's kernel acknowledges reply segments.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Acks {
    /// Acknowledge what was read at once (`TCP_QUICKACK`, re-armed after
    /// every read because the kernel drops it again). The load generator
    /// uses this: `mpf_serve` writes a reply as many small segments with
    /// Nagle's algorithm on, so it sends the second one only when the
    /// first is acknowledged, and a client that leaves acknowledgement to
    /// the kernel's delayed-ACK timer waits ≈40 ms per reply — which would
    /// drown every other layer on every workload.
    Prompt,
    /// Leave acknowledgement to the kernel, as a plain client does. The
    /// traced run measures this too, as `wire.delayed_ack_stall_us`.
    Kernel,
}

/// One blocking connection to the service.
pub struct Conn {
    stream: TcpStream,
    acks: Acks,
    request: Vec<u8>,
}

impl Conn {
    pub fn connect(addr: SocketAddr, acks: Acks) -> io::Result<Conn> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        stream.set_read_timeout(Some(REPLY_TIMEOUT))?;
        Ok(Conn {
            stream,
            acks,
            request: Vec::new(),
        })
    }

    /// Send one request line and read its whole reply into `reply`
    /// (cleared first): a single `ERR …`/`PONG`/`BYE` line, or everything
    /// from `OK …` through `END`. The loop is closed — one request in
    /// flight — so whatever arrives belongs to this reply.
    pub fn round_trip(&mut self, line: &str, reply: &mut Vec<u8>) -> io::Result<()> {
        reply.clear();
        self.request.clear();
        self.request.extend_from_slice(line.as_bytes());
        self.request.push(b'\n');
        self.stream.write_all(&self.request)?;
        loop {
            let filled = reply.len();
            reply.resize(filled + READ_CHUNK, 0);
            let n = self.stream.read(&mut reply[filled..]);
            reply.truncate(filled + n.as_ref().map_or(0, |&n| n));
            if n? == 0 {
                return Err(io::Error::new(
                    io::ErrorKind::UnexpectedEof,
                    "connection closed mid-reply",
                ));
            }
            if self.acks == Acks::Prompt {
                self.stream.set_quickack(true)?;
            }
            if reply_is_complete(reply) {
                return Ok(());
            }
        }
    }
}

/// Whether `reply` holds a whole response: an `OK …` answer runs through
/// its `END` line, anything else is one line.
fn reply_is_complete(reply: &[u8]) -> bool {
    if !reply.contains(&b'\n') {
        return false;
    }
    !reply.starts_with(b"OK ") || reply.ends_with(b"\nEND\n")
}

/// A parsed answer: header fields and the row set keyed by its
/// variable bindings (sorted by variable name, so two answers compare
/// equal regardless of column or row order).
#[derive(Debug, Clone, PartialEq)]
pub struct Answer {
    /// The `rows=<n>` header field.
    pub declared_rows: usize,
    /// `"a=1 b=2"` → measure.
    pub rows: BTreeMap<String, f64>,
}

/// Parse a whole reply. `Err` carries why it is not a well-formed
/// `OK rows=<n> … / ROW … / END` answer (an `ERR` line lands here too).
pub fn parse_answer(reply: &[u8]) -> Result<Answer, String> {
    let text = std::str::from_utf8(reply).map_err(|e| format!("reply is not UTF-8: {e}"))?;
    let mut lines = text.lines();
    let header = lines.next().ok_or("empty reply")?;
    let declared_rows = parse_header_rows(header)?;
    let mut rows = BTreeMap::new();
    let mut ended = false;
    for line in lines {
        if line == "END" {
            ended = true;
            break;
        }
        let body = line
            .strip_prefix("ROW ")
            .ok_or_else(|| format!("unexpected line `{line}`"))?;
        let mut bindings: Vec<&str> = body.split(' ').collect();
        let measure = bindings
            .pop()
            .and_then(|m| m.strip_prefix("m="))
            .ok_or_else(|| format!("row without a measure: `{line}`"))?
            .parse::<f64>()
            .map_err(|e| format!("bad measure in `{line}`: {e}"))?;
        bindings.sort_unstable();
        if rows.insert(bindings.join(" "), measure).is_some() {
            return Err(format!("duplicate row `{line}`"));
        }
    }
    if !ended {
        return Err("reply without END".into());
    }
    if rows.len() != declared_rows {
        return Err(format!(
            "header declares {declared_rows} rows, reply carries {}",
            rows.len()
        ));
    }
    Ok(Answer {
        declared_rows,
        rows,
    })
}

/// The `rows=<n>` field of an `OK rows=<n> strategy=<s>` header line.
pub fn parse_header_rows(header: &str) -> Result<usize, String> {
    let rest = header
        .strip_prefix("OK ")
        .ok_or_else(|| format!("not an answer: `{header}`"))?;
    rest.split(' ')
        .find_map(|field| field.strip_prefix("rows="))
        .ok_or_else(|| format!("header without rows=: `{header}`"))?
        .parse()
        .map_err(|e| format!("bad rows= in `{header}`: {e}"))
}

/// Relative tolerance of every answer comparison in this harness (also
/// stated in `BENCHMARK.json`).
pub const REL_TOL: f64 = 1e-9;

/// Compare a reply with the reference: same row set, every measure within
/// [`REL_TOL`] of the reference (relative to the larger magnitude).
pub fn matches_reference(got: &Answer, want: &BTreeMap<String, f64>) -> Result<(), String> {
    if got.rows.len() != want.len() {
        return Err(format!(
            "{} rows, reference has {}",
            got.rows.len(),
            want.len()
        ));
    }
    for (key, &w) in want {
        let g = *got
            .rows
            .get(key)
            .ok_or_else(|| format!("row `{key}` missing"))?;
        // Written so that a NaN on either side fails the comparison.
        let close = g == w || (g - w).abs() <= REL_TOL * g.abs().max(w.abs());
        if !close {
            return Err(format!("row `{key}`: got {g}, reference {w}"));
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_rows_in_any_column_order() {
        let a =
            parse_answer(b"OK rows=2 strategy=Auto\nROW b=1 a=0 m=2.5\nROW b=0 a=1 m=1e-3\nEND\n")
                .unwrap();
        assert_eq!(a.declared_rows, 2);
        assert_eq!(a.rows["a=0 b=1"], 2.5);
        assert_eq!(a.rows["a=1 b=0"], 0.001);
        // A group-by over no variables has one row with only a measure.
        let a = parse_answer(b"OK rows=1 strategy=Auto\nROW m=7\nEND\n").unwrap();
        assert_eq!(a.rows[""], 7.0);
    }

    #[test]
    fn reply_framing() {
        assert!(!reply_is_complete(b"OK rows=1 strat"));
        assert!(!reply_is_complete(
            b"OK rows=1 strategy=Auto\nROW a=0 m=1\n"
        ));
        assert!(!reply_is_complete(
            b"OK rows=1 strategy=Auto\nROW a=0 m=1\nEN"
        ));
        assert!(reply_is_complete(
            b"OK rows=1 strategy=Auto\nROW a=0 m=1\nEND\n"
        ));
        assert!(reply_is_complete(b"OK view=v\nEND\n"));
        assert!(reply_is_complete(
            b"ERR kind=parse retriable=false backoff_ms=0 msg=\"x\"\n"
        ));
        assert!(reply_is_complete(b"BYE\n"));
    }

    #[test]
    fn rejects_malformed_replies() {
        assert!(parse_answer(b"ERR kind=parse retriable=false backoff_ms=0 msg=\"x\"\n").is_err());
        assert!(parse_answer(b"OK rows=1 strategy=Auto\nROW a=0 m=1\n").is_err());
        assert!(parse_answer(b"OK rows=2 strategy=Auto\nROW a=0 m=1\nEND\n").is_err());
        assert!(parse_answer(b"OK rows=1 strategy=Auto\nROW a=0\nEND\n").is_err());
        assert!(parse_answer(b"OK rows=2 strategy=Auto\nROW a=0 m=1\nROW a=0 m=2\nEND\n").is_err());
    }

    #[test]
    fn tolerance_is_relative() {
        let want = BTreeMap::from([("a=0".to_string(), 1e12)]);
        let close = Answer {
            declared_rows: 1,
            rows: BTreeMap::from([("a=0".to_string(), 1e12 + 100.0)]),
        };
        let far = Answer {
            declared_rows: 1,
            rows: BTreeMap::from([("a=0".to_string(), 1e12 + 1e5)]),
        };
        assert!(matches_reference(&close, &want).is_ok());
        assert!(matches_reference(&far, &want).is_err());
        let nan = Answer {
            declared_rows: 1,
            rows: BTreeMap::from([("a=0".to_string(), f64::NAN)]),
        };
        assert!(matches_reference(&nan, &want).is_err());
    }
}
