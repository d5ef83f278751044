//! The NDJSON line framer: the one copy of the line rules.
//!
//! Whoever reads a batch's bytes owns its [`Lines`] — the reactor for each
//! NDJSON connection and each `POST /solve` body, [`crate::BatchSession`]
//! for its reader, the router for each shard stream's answers — pushes the
//! bytes in as they arrive and marks the end of input. A session pulls
//! whole lines with [`Lines::next_line`] only when it can take them. The rules:
//!
//! * lines are numbered from 1, blank lines included;
//! * a blank line (valid UTF-8 that `str::trim` leaves empty) takes its
//!   number but is never handed out;
//! * at the end of input the final unterminated line is a line too, and
//!   is handed out newline-terminated like every other;
//! * once the shutdown token fired, every complete line is still handed
//!   out, but a trailing partial line is dropped, and the input is over as
//!   soon as no complete line is left;
//! * bytes pushed after the end are ignored, so a drain always ends.

use std::io::BufRead;

use busytime_core::cancel::CancelToken;

/// One batch's input, framed into lines; see the [module docs](self).
pub struct Lines {
    buf: Vec<u8>,
    /// Start of the first line not yet taken.
    start: usize,
    /// `buf[start..scanned]` holds no newline: the next search resumes here.
    scanned: usize,
    /// Number of the last line taken.
    number: usize,
    ended: bool,
    shutdown: CancelToken,
}

/// One line taken off a [`Lines`].
pub struct Line<'a> {
    /// 1-based input line number.
    pub number: usize,
    /// The line as it arrived, newline included.
    pub bytes: &'a [u8],
}

impl Lines {
    /// An empty framer for a batch drained by `shutdown`.
    pub fn new(shutdown: CancelToken) -> Lines {
        Lines {
            buf: Vec::new(),
            start: 0,
            scanned: 0,
            number: 0,
            ended: false,
            shutdown,
        }
    }

    /// A framer over a batch that arrived whole: `bytes` and nothing more.
    pub(crate) fn whole(bytes: Vec<u8>, shutdown: CancelToken) -> Lines {
        Lines {
            buf: bytes,
            ended: true,
            ..Lines::new(shutdown)
        }
    }

    /// Appends bytes read from the client; ignored after [`Lines::end`].
    pub fn push(&mut self, bytes: &[u8]) {
        if !self.ended {
            self.compact();
            self.buf.extend_from_slice(bytes);
        }
    }

    /// Reads one line from `input`, ending the input when it has ended.
    /// Returns whether the line read is a record (not blank).
    pub(crate) fn read_line(&mut self, input: &mut impl BufRead) -> std::io::Result<bool> {
        self.compact();
        let at = self.buf.len();
        if input.read_until(b'\n', &mut self.buf)? == 0 || !self.buf.ends_with(b"\n") {
            self.ended = true;
        }
        Ok(!is_blank(&self.buf[at..]))
    }

    /// Marks the end of input: EOF, half-close, idle cut, or a drain.
    pub fn end(&mut self) {
        self.ended = true;
    }

    /// Whether [`Lines::end`] was called.
    pub(crate) fn is_ended(&self) -> bool {
        self.ended
    }

    /// Bytes pushed and not yet taken.
    pub(crate) fn held(&self) -> usize {
        self.buf.len() - self.start
    }

    /// Whether a complete line waits to be taken.
    pub(crate) fn has_line(&mut self) -> bool {
        self.line_end().is_some()
    }

    /// The input is over: no line is left to take, and none can arrive.
    pub fn is_done(&mut self) -> bool {
        if self.shutdown.is_cancelled() {
            !self.has_line()
        } else {
            self.ended && self.start == self.buf.len()
        }
    }

    /// Takes the next non-blank line, or `None` until one is complete.
    pub fn next_line(&mut self) -> Option<Line<'_>> {
        let range = loop {
            let end = match self.line_end() {
                Some(end) => end,
                None if self.ended
                    && self.start < self.buf.len()
                    && !self.shutdown.is_cancelled() =>
                {
                    self.buf.push(b'\n');
                    self.buf.len()
                }
                None => return None,
            };
            let start = std::mem::replace(&mut self.start, end);
            self.scanned = end;
            self.number += 1;
            if !is_blank(&self.buf[start..end]) {
                break start..end;
            }
        };
        Some(Line {
            number: self.number,
            bytes: &self.buf[range],
        })
    }

    /// The end (one past the newline) of the next complete line.
    fn line_end(&mut self) -> Option<usize> {
        match self.buf[self.scanned..].iter().position(|&b| b == b'\n') {
            Some(at) => {
                self.scanned += at;
                Some(self.scanned + 1)
            }
            None => {
                self.scanned = self.buf.len();
                None
            }
        }
    }

    /// Drops the taken prefix before the buffer grows again.
    fn compact(&mut self) {
        if self.start > 0 {
            self.buf.drain(..self.start);
            self.scanned -= self.start;
            self.start = 0;
        }
    }
}

/// Blank: valid UTF-8 that `str::trim` leaves empty.
fn is_blank(line: &[u8]) -> bool {
    // a visible ASCII character is never trimmed, so the common line is
    // decided without validating all of it
    match line.iter().find(|b| !b.is_ascii_whitespace()) {
        Some(b) if b.is_ascii_graphic() => false,
        _ => std::str::from_utf8(line).is_ok_and(|s| s.trim().is_empty()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn taken(lines: &mut Lines) -> Vec<(usize, String)> {
        std::iter::from_fn(|| {
            lines
                .next_line()
                .map(|l| (l.number, String::from_utf8_lossy(l.bytes).into_owned()))
        })
        .collect()
    }

    #[test]
    fn numbers_skip_blanks_and_the_end_takes_a_final_unterminated_line() {
        let mut lines = Lines::new(CancelToken::never());
        lines.push(b"a\n \t\n\xc2\xa0\r\nb\r");
        assert_eq!(taken(&mut lines), [(1, "a\n".to_string())]);
        lines.push(b"\nc");
        assert_eq!(taken(&mut lines), [(4, "b\r\n".to_string())]);
        assert!(!lines.is_done(), "a partial line is not the end");
        lines.end();
        lines.push(b"\nlate\n");
        assert_eq!(taken(&mut lines), [(5, "c\n".to_string())]);
        assert!(lines.is_done());
    }

    #[test]
    fn a_drain_keeps_complete_lines_and_drops_a_trailing_partial() {
        let shutdown = CancelToken::never();
        let mut lines = Lines::new(shutdown.clone());
        lines.push(b"a\n\xff\npartial");
        shutdown.cancel();
        assert!(!lines.is_done(), "complete lines are still owed");
        assert_eq!(
            taken(&mut lines),
            [(1, "a\n".to_string()), (2, "\u{fffd}\n".to_string())]
        );
        assert!(lines.is_done(), "no end needed once drained");
        lines.end();
        assert!(taken(&mut lines).is_empty());
    }

    #[test]
    fn read_line_ends_the_input_at_eof() {
        let mut input: &[u8] = b"a\n\n b";
        let mut lines = Lines::new(CancelToken::never());
        let records: Vec<bool> = (0..3)
            .map(|_| lines.read_line(&mut input).unwrap())
            .collect();
        assert_eq!(records, [true, false, true]);
        assert!(lines.is_ended());
        assert_eq!(
            taken(&mut lines),
            [(1, "a\n".to_string()), (3, " b\n".to_string())]
        );
    }
}
