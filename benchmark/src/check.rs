//! Reply checking. Replies are deduplicated while the clock runs and
//! compared with the reference afterwards, so checking costs the client a
//! byte comparison per reply and the oracle's memory never counts in
//! `peak_rss_mb`.

use std::io;

use crate::oracle::Oracle;
use crate::wire::{matches_reference, parse_answer, parse_header_rows};

/// What a reply is held to while the window runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mode {
    /// Data is fixed: every reply must equal the reference row set.
    Exact,
    /// A writer is changing measures: replies are held to their shape
    /// (header and row count); values are checked after the writer stops.
    Shape,
}

impl Mode {
    /// The mode for a window during which a writer does (not) run.
    pub fn while_writing(writing: bool) -> Mode {
        if writing {
            Mode::Shape
        } else {
            Mode::Exact
        }
    }
}

/// Distinct replies seen per pool statement, with how often each came.
pub struct Checker {
    mode: Mode,
    seen: Vec<Vec<(Vec<u8>, u64)>>,
    pub attempted: u64,
    /// Requests that failed outright: I/O error, timeout, `ERR` line.
    pub refused: u64,
    /// First few failures, for the operator.
    pub notes: Vec<String>,
}

const MAX_NOTES: usize = 5;

impl Checker {
    pub fn new(pool_len: usize, mode: Mode) -> Checker {
        Checker {
            mode,
            seen: vec![Vec::new(); pool_len],
            attempted: 0,
            refused: 0,
            notes: Vec::new(),
        }
    }

    fn note(&mut self, text: String) {
        if self.notes.len() < MAX_NOTES {
            self.notes.push(text);
        }
    }

    /// Record the outcome of one request for pool statement `idx`.
    pub fn observe(&mut self, idx: usize, outcome: &io::Result<()>, reply: &[u8]) {
        self.attempted += 1;
        if let Err(e) = outcome {
            self.refused += 1;
            self.note(format!("statement {idx}: {e}"));
            return;
        }
        if !reply.starts_with(b"OK ") {
            self.refused += 1;
            self.note(format!(
                "statement {idx}: {}",
                String::from_utf8_lossy(reply).trim_end()
            ));
            return;
        }
        let signature = match self.mode {
            Mode::Exact => reply,
            Mode::Shape => reply
                .split_inclusive(|&b| b == b'\n')
                .next()
                .unwrap_or(reply),
        };
        match self.seen[idx].iter_mut().find(|(s, _)| s == signature) {
            Some((_, count)) => *count += 1,
            None => self.seen[idx].push((signature.to_vec(), 1)),
        }
    }

    /// Most distinct replies any one statement drew (1 when every repeat
    /// of a statement was answered byte for byte the same).
    pub fn reply_variants(&self) -> usize {
        self.seen.iter().map(Vec::len).max().unwrap_or(0)
    }

    pub fn merge(&mut self, other: Checker) {
        assert_eq!(self.mode, other.mode);
        self.attempted += other.attempted;
        self.refused += other.refused;
        for note in other.notes {
            self.note(note);
        }
        for (mine, theirs) in self.seen.iter_mut().zip(other.seen) {
            for (sig, count) in theirs {
                match mine.iter_mut().find(|(s, _)| *s == sig) {
                    Some((_, c)) => *c += count,
                    None => mine.push((sig, count)),
                }
            }
        }
    }

    /// Compare every distinct reply with the oracle. Returns
    /// `(attempted, failed)`: refused requests plus every request whose
    /// reply disagrees with the reference.
    pub fn verify(
        mut self,
        pool: &[String],
        oracle: &Oracle,
    ) -> Result<(u64, u64, Vec<String>), String> {
        let mut wrong = 0;
        for (idx, replies) in std::mem::take(&mut self.seen).into_iter().enumerate() {
            if replies.is_empty() {
                continue;
            }
            let want = oracle.answer(&pool[idx])?;
            for (sig, count) in replies {
                let verdict = match self.mode {
                    Mode::Exact => {
                        parse_answer(&sig).and_then(|got| matches_reference(&got, &want))
                    }
                    Mode::Shape => parse_header_rows(String::from_utf8_lossy(&sig).trim_end())
                        .and_then(|n| {
                            (n == want.len())
                                .then_some(())
                                .ok_or_else(|| format!("{n} rows, reference has {}", want.len()))
                        }),
                };
                if let Err(why) = verdict {
                    wrong += count;
                    self.note(format!("`{}`: {why}", pool[idx]));
                }
            }
        }
        Ok((self.attempted, self.refused + wrong, self.notes))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dedups_replies_and_counts_refusals() {
        let mut c = Checker::new(2, Mode::Exact);
        let ok = b"OK rows=1 strategy=Auto\nROW a=0 m=1\nEND\n";
        c.observe(0, &Ok(()), ok);
        c.observe(0, &Ok(()), ok);
        c.observe(
            1,
            &Ok(()),
            b"ERR kind=busy retriable=true backoff_ms=5 msg=\"x\"\n",
        );
        c.observe(1, &Err(io::Error::other("timeout")), b"");
        assert_eq!((c.attempted, c.refused), (4, 2));
        assert_eq!(c.seen[0], vec![(ok.to_vec(), 2)]);
        assert!(c.seen[1].is_empty());

        let mut shape = Checker::new(1, Mode::Shape);
        shape.observe(0, &Ok(()), ok);
        shape.observe(0, &Ok(()), b"OK rows=1 strategy=Auto\nROW a=0 m=2\nEND\n");
        assert_eq!(
            shape.seen[0],
            vec![(b"OK rows=1 strategy=Auto\n".to_vec(), 2)]
        );
    }
}
