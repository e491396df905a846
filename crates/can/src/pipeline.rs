//! The per-frame receive pipeline.
//!
//! Every node on the bus — receivers *and* the transmitter, which monitors
//! its own frame — runs one [`RxPipeline`] per frame. The pipeline consumes
//! the node's **view** of each bus bit, keeps the frame-relative position as
//! a cursor, destuffs the stuffed region, decodes fields, evaluates the CRC
//! and checks the fixed-form tail. It makes no accept/reject decisions:
//! those belong to the controller and its protocol
//! [`Variant`](crate::Variant).

use crate::{Crc15, Field, Frame, FrameId, Layout, WirePos};
use majorcan_sim::Level;

/// Outcome of feeding one bit into the pipeline.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RxStep {
    /// Bit consumed without protocol violation.
    Ok,
    /// Six consecutive equal levels inside the stuffed region.
    StuffError,
    /// Dominant level in a fixed-form field (CRC delimiter, ACK delimiter,
    /// or an EOF bit — the controller decides what an EOF violation means
    /// under the active protocol variant).
    FormError,
    /// The final EOF bit was consumed; the frame is complete on the wire.
    FrameComplete,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Stage {
    /// Inside SOF..CRC, destuffing.
    Stuffed,
    CrcDelim,
    AckSlot,
    AckDelim,
    Eof,
    Done,
}

/// Incremental decoder for a single frame, fed one seen bit per bit time.
#[derive(Debug, Clone)]
pub struct RxPipeline {
    eof_len: usize,
    stage: Stage,
    /// Position of the next bit to be pushed: [`RxPipeline::locate`],
    /// stored by every push that does not end the frame in an error.
    pos: WirePos,
    // --- stuffed-region state ---
    destuffed: usize,
    run_level: Option<Level>,
    run_len: u8,
    expect_stuff: bool,
    layout: Layout,
    crc: Crc15,
    // --- decoded fields ---
    id_bits: u16,
    rtr: bool,
    dlc: u8,
    data: [u8; 8],
    crc_received: u16,
    crc_ok: Option<bool>,
    frame: Option<Frame>,
    // --- tail state ---
    eof_done: usize,
    ack_seen_dominant: bool,
}

impl RxPipeline {
    /// Starts a pipeline for a frame whose SOF has just been recognised.
    /// The SOF bit itself must still be [pushed](RxPipeline::push).
    ///
    /// `eof_len` is the variant's EOF length (7 for CAN, `2m` for MajorCAN).
    pub fn new(eof_len: usize) -> RxPipeline {
        RxPipeline {
            eof_len,
            stage: Stage::Stuffed,
            pos: WirePos::new(Field::Sof, 0),
            destuffed: 0,
            run_level: None,
            run_len: 0,
            expect_stuff: false,
            layout: Layout::new(0),
            crc: Crc15::new(),
            id_bits: 0,
            rtr: false,
            dlc: 0,
            data: [0u8; 8],
            crc_received: 0,
            crc_ok: None,
            frame: None,
            eof_done: 0,
            ack_seen_dominant: false,
        }
    }

    /// Frame-relative position of the **next** bit to be pushed.
    ///
    /// Reads the stored cursor; after a push that returned
    /// [`RxStep::StuffError`] or [`RxStep::FormError`] it still names the
    /// offending bit (the frame is over and the cursor is not advanced).
    pub fn pos(&self) -> WirePos {
        self.pos
    }

    /// [`RxPipeline::pos`] recomputed from the decoder stage and the
    /// destuffed index through [`Layout::field_at`]: the reference the
    /// stored cursor is tested against.
    ///
    /// # Panics
    ///
    /// After a stuff error on the stuff bit that follows the last CRC bit,
    /// where the destuffed index already lies past the stuffed region.
    pub fn locate(&self) -> WirePos {
        match self.stage {
            Stage::Stuffed => {
                if self.expect_stuff {
                    let (field, index) = self.layout.field_at(self.destuffed - 1);
                    WirePos {
                        field,
                        index,
                        stuff: true,
                    }
                } else {
                    let (field, index) = self.layout.field_at(self.destuffed);
                    WirePos::new(field, index)
                }
            }
            Stage::CrcDelim => WirePos::new(Field::CrcDelim, 0),
            Stage::AckSlot => WirePos::new(Field::AckSlot, 0),
            Stage::AckDelim => WirePos::new(Field::AckDelim, 0),
            Stage::Eof => WirePos::new(Field::Eof, self.eof_done as u16),
            Stage::Done => WirePos::new(Field::Intermission, 0),
        }
    }

    /// `true` when the next bit is the ACK slot and the CRC matched, i.e.
    /// a receiver should drive dominant.
    pub fn ack_due(&self) -> bool {
        self.stage == Stage::AckSlot && self.crc_ok == Some(true)
    }

    /// `true` when the next bit is the ACK slot, regardless of CRC.
    pub fn at_ack_slot(&self) -> bool {
        self.stage == Stage::AckSlot
    }

    /// Whether a dominant level was seen in the ACK slot (meaningful to the
    /// transmitter: recessive ⇒ acknowledgment error).
    pub fn ack_seen_dominant(&self) -> bool {
        self.ack_seen_dominant
    }

    /// CRC verdict, available once the CRC sequence has been consumed.
    pub fn crc_ok(&self) -> Option<bool> {
        self.crc_ok
    }

    /// The decoded frame, available once the CRC sequence has been consumed
    /// (content is meaningful only if [`RxPipeline::crc_ok`] is true).
    pub fn frame(&self) -> Option<&Frame> {
        self.frame.as_ref()
    }

    /// Number of EOF bits consumed so far.
    pub fn eof_done(&self) -> usize {
        self.eof_done
    }

    /// `true` once the whole frame, EOF included, has been consumed.
    pub fn is_done(&self) -> bool {
        self.stage == Stage::Done
    }

    /// Consumes the node's view of the next bus bit.
    pub fn push(&mut self, seen: Level) -> RxStep {
        let step = self.step(seen);
        if matches!(step, RxStep::Ok | RxStep::FrameComplete) {
            self.pos = self.locate();
        }
        step
    }

    fn step(&mut self, seen: Level) -> RxStep {
        match self.stage {
            Stage::Stuffed => self.push_stuffed(seen),
            Stage::CrcDelim => {
                self.stage = Stage::AckSlot;
                if seen.is_dominant() {
                    RxStep::FormError
                } else {
                    RxStep::Ok
                }
            }
            Stage::AckSlot => {
                self.ack_seen_dominant = seen.is_dominant();
                self.stage = Stage::AckDelim;
                RxStep::Ok
            }
            Stage::AckDelim => {
                self.stage = Stage::Eof;
                if seen.is_dominant() {
                    RxStep::FormError
                } else {
                    RxStep::Ok
                }
            }
            Stage::Eof => {
                self.eof_done += 1;
                if self.eof_done == self.eof_len {
                    self.stage = Stage::Done;
                }
                if seen.is_dominant() {
                    RxStep::FormError
                } else if self.stage == Stage::Done {
                    RxStep::FrameComplete
                } else {
                    RxStep::Ok
                }
            }
            Stage::Done => RxStep::Ok,
        }
    }

    fn push_stuffed(&mut self, seen: Level) -> RxStep {
        if self.expect_stuff {
            // The stuff bit must complement the preceding run.
            self.expect_stuff = false;
            if Some(seen) == self.run_level {
                return RxStep::StuffError;
            }
            self.run_level = Some(seen);
            self.run_len = 1;
            self.maybe_finish_stuffed_region();
            return RxStep::Ok;
        }

        // Run tracking for stuff detection.
        if Some(seen) == self.run_level {
            self.run_len += 1;
        } else {
            self.run_level = Some(seen);
            self.run_len = 1;
        }

        self.consume_payload_bit(seen);

        if self.run_len == 5 {
            // A run of five forces a stuff bit — even when the run ends on
            // the very last CRC bit, one stuff bit precedes the delimiter.
            self.expect_stuff = true;
        } else {
            self.maybe_finish_stuffed_region();
        }
        RxStep::Ok
    }

    fn maybe_finish_stuffed_region(&mut self) {
        if self.destuffed == self.layout.stuffed_region_len() && !self.expect_stuff {
            self.stage = Stage::CrcDelim;
            self.finish_crc();
        }
    }

    fn consume_payload_bit(&mut self, seen: Level) {
        let i = self.destuffed;
        let bit = seen.is_recessive();
        if i < self.layout.crc_start() {
            self.crc.push(bit);
        }
        match i {
            0 => {} // SOF
            1..=11 => {
                self.id_bits = (self.id_bits << 1) | bit as u16;
            }
            12 => self.rtr = bit,
            13 | 14 => {} // IDE, r0
            15..=18 => {
                self.dlc = (self.dlc << 1) | bit as u8;
                if i == 18 {
                    let data_len = if self.rtr {
                        0
                    } else {
                        (self.dlc as usize).min(8)
                    };
                    self.layout = Layout::new(data_len);
                }
            }
            _ if i < self.layout.crc_start() => {
                let data_idx = i - Layout::DATA_START;
                let byte = data_idx / 8;
                self.data[byte] = (self.data[byte] << 1) | bit as u8;
            }
            _ => {
                self.crc_received = (self.crc_received << 1) | bit as u16;
            }
        }
        self.destuffed += 1;
    }

    fn finish_crc(&mut self) {
        let ok = self.crc.value() == self.crc_received;
        self.crc_ok = Some(ok);
        // Reconstruct the frame. Identifier reserved-range violations can
        // only reach here through channel corruption; such frames fail CRC
        // in practice, but reconstruct defensively either way.
        let id = match FrameId::new(self.id_bits) {
            Ok(id) => id,
            Err(_) => {
                self.crc_ok = Some(false);
                return;
            }
        };
        let frame = if self.rtr {
            Frame::new_remote(id, self.dlc.min(8))
        } else {
            let len = (self.dlc as usize).min(8);
            Frame::new(id, &self.data[..len])
        };
        match frame {
            Ok(f) => self.frame = Some(f),
            Err(_) => self.crc_ok = Some(false),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{encode_frame, StandardCan, Variant};

    fn feed_whole_frame(frame: &Frame) -> (RxPipeline, Vec<RxStep>) {
        let wire = encode_frame(frame, &StandardCan);
        let mut pipe = RxPipeline::new(StandardCan.eof_len());
        let steps = wire.iter().map(|wb| pipe.push(wb.level)).collect();
        (pipe, steps)
    }

    fn fid(raw: u16) -> FrameId {
        FrameId::new(raw).unwrap()
    }

    #[test]
    fn decodes_clean_frame() {
        let frame = Frame::new(fid(0x2A3), &[0xde, 0xad, 0xbe]).unwrap();
        let (pipe, steps) = feed_whole_frame(&frame);
        assert!(pipe.is_done());
        assert_eq!(pipe.crc_ok(), Some(true));
        assert_eq!(pipe.frame(), Some(&frame));
        assert_eq!(steps.last(), Some(&RxStep::FrameComplete));
        assert!(steps[..steps.len() - 1].iter().all(|s| *s == RxStep::Ok));
    }

    #[test]
    fn decodes_all_payload_lengths() {
        for len in 0..=8usize {
            let payload: Vec<u8> = (0..len as u8).map(|b| b.wrapping_mul(37)).collect();
            let frame = Frame::new(fid(0x100 + len as u16), &payload).unwrap();
            let (pipe, _) = feed_whole_frame(&frame);
            assert_eq!(pipe.frame(), Some(&frame), "len {len}");
            assert_eq!(pipe.crc_ok(), Some(true));
        }
    }

    #[test]
    fn decodes_remote_frame() {
        let frame = Frame::new_remote(fid(0x123), 3).unwrap();
        let (pipe, _) = feed_whole_frame(&frame);
        assert_eq!(pipe.frame(), Some(&frame));
        assert_eq!(pipe.crc_ok(), Some(true));
    }

    #[test]
    fn positions_track_fields() {
        let frame = Frame::new(fid(0x2A3), &[0x55]).unwrap();
        let wire = encode_frame(&frame, &StandardCan);
        let mut pipe = RxPipeline::new(7);
        for wb in &wire {
            assert_eq!(pipe.pos(), wb.pos, "position mismatch before {:?}", wb.pos);
            pipe.push(wb.level);
        }
        assert_eq!(pipe.pos().field, Field::Intermission);
    }

    #[test]
    fn corrupted_payload_bit_fails_crc() {
        let frame = Frame::new(fid(0x2A3), &[0xAA]).unwrap();
        let wire = encode_frame(&frame, &StandardCan);
        // Flip one data bit on the wire; pick a non-stuff payload bit.
        let idx = wire
            .iter()
            .position(|wb| wb.pos.field == Field::Data && !wb.pos.stuff)
            .unwrap();
        let mut pipe = RxPipeline::new(7);
        let mut stuff_error = false;
        for (i, wb) in wire.iter().enumerate() {
            let level = if i == idx { !wb.level } else { wb.level };
            if pipe.push(level) == RxStep::StuffError {
                stuff_error = true;
                break;
            }
        }
        // The flip either breaks stuffing or the CRC.
        if !stuff_error {
            assert_eq!(pipe.crc_ok(), Some(false));
        }
    }

    #[test]
    fn ack_due_only_with_good_crc() {
        let frame = Frame::new(fid(0x77), &[]).unwrap();
        let wire = encode_frame(&frame, &StandardCan);
        let mut pipe = RxPipeline::new(7);
        let mut was_due = false;
        for wb in &wire {
            if pipe.at_ack_slot() {
                was_due = pipe.ack_due();
                // Simulate some receiver acknowledging.
                pipe.push(Level::Dominant);
                continue;
            }
            pipe.push(wb.level);
        }
        assert!(was_due);
        assert!(pipe.ack_seen_dominant());
    }

    #[test]
    fn no_ack_seen_reports_recessive() {
        let frame = Frame::new(fid(0x77), &[]).unwrap();
        let (pipe, _) = feed_whole_frame(&frame);
        assert!(!pipe.ack_seen_dominant(), "transmitter alone: no ACK");
    }

    #[test]
    fn stuff_error_on_six_equal() {
        let mut pipe = RxPipeline::new(7);
        // SOF dominant + 5 more dominants = 6 equal -> the 6th must be a
        // recessive stuff bit; pushing dominant is a stuff violation.
        for _ in 0..5 {
            assert_eq!(pipe.push(Level::Dominant), RxStep::Ok);
        }
        assert_eq!(pipe.push(Level::Dominant), RxStep::StuffError);
    }

    #[test]
    fn form_error_on_dominant_crc_delim() {
        let frame = Frame::new(fid(0x2A3), &[]).unwrap();
        let wire = encode_frame(&frame, &StandardCan);
        let mut pipe = RxPipeline::new(7);
        for wb in &wire {
            if wb.pos.field == Field::CrcDelim {
                assert_eq!(pipe.push(Level::Dominant), RxStep::FormError);
                return;
            }
            pipe.push(wb.level);
        }
        panic!("CRC delimiter not reached");
    }

    #[test]
    fn form_error_on_dominant_eof_bit_with_position() {
        let frame = Frame::new(fid(0x2A3), &[]).unwrap();
        let wire = encode_frame(&frame, &StandardCan);
        let mut pipe = RxPipeline::new(7);
        for wb in &wire {
            if wb.pos == WirePos::eof(6) {
                assert_eq!(pipe.pos(), WirePos::eof(6));
                assert_eq!(pipe.push(Level::Dominant), RxStep::FormError);
                return;
            }
            pipe.push(wb.level);
        }
        panic!("EOF bit 6 not reached");
    }

    #[test]
    fn majorcan_eof_length_respected() {
        // A 10-bit EOF (m = 5) pipeline completes after 10 EOF bits.
        let frame = Frame::new(fid(0x2A3), &[]).unwrap();
        let wire = encode_frame(&frame, &StandardCan);
        let mut pipe = RxPipeline::new(10);
        for wb in wire.iter().filter(|wb| wb.pos.field != Field::Eof) {
            assert_eq!(pipe.push(wb.level), RxStep::Ok);
        }
        for i in 0..10 {
            let step = pipe.push(Level::Recessive);
            if i == 9 {
                assert_eq!(step, RxStep::FrameComplete);
            } else {
                assert_eq!(step, RxStep::Ok, "EOF bit {i}");
            }
        }
        assert!(pipe.is_done());
    }

    #[test]
    fn dlc_above_eight_clamps_to_eight_bytes() {
        // Hand-craft destuffed bits with DLC = 0b1111 (15) and 8 data bytes;
        // CRC computed accordingly. The pipeline must clamp to 8 bytes.
        let mut bits: Vec<bool> = Vec::new();
        bits.push(false); // SOF
        for i in 0..11 {
            bits.push(fid(0x155).bit(i));
        }
        bits.extend([false, false, false]); // RTR, IDE, r0
        bits.extend([true, true, true, true]); // DLC = 15
        for byte in 0u8..8 {
            for i in (0..8).rev() {
                bits.push((byte.wrapping_mul(31) >> i) & 1 == 1);
            }
        }
        let crc = Crc15::of_bits(bits.iter().copied());
        for i in (0..15).rev() {
            bits.push((crc >> i) & 1 == 1);
        }
        let levels: Vec<Level> = bits.iter().map(|&b| Level::from_bit(b)).collect();
        let stuffed = crate::stuff(&levels);
        let mut pipe = RxPipeline::new(7);
        for (level, _) in stuffed {
            assert_ne!(pipe.push(level), RxStep::StuffError);
        }
        // Tail.
        pipe.push(Level::Recessive); // CRC delim
        pipe.push(Level::Dominant); // ACK
        pipe.push(Level::Recessive); // ACK delim
        for _ in 0..7 {
            pipe.push(Level::Recessive);
        }
        assert_eq!(pipe.crc_ok(), Some(true));
        let frame = pipe.frame().expect("frame decoded");
        assert_eq!(frame.data().len(), 8);
    }
}
