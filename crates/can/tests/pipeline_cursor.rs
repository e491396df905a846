//! Equivalence gate for the receive pipeline's stored position cursor.
//!
//! [`RxPipeline::pos`] reads a cursor that `push` stores after every step
//! that does not end the frame in an error; [`RxPipeline::locate`] is the
//! simplest path, recomputing the position from the decoder stage through
//! `Layout::field_at`. The two must agree after every such step under
//! arbitrary per-bit view flips, and until the first flip the cursor must
//! name the position `encode_frame` attributes to the next bit.

use majorcan_can::{encode_frame, Field, Frame, FrameId, RxPipeline, RxStep, StandardCan, Variant};
use majorcan_sim::Level;
use proptest::prelude::*;

/// Bits pushed after the wire runs out (views flipped into a longer frame
/// keep decoding on recessive filler until they end or fail).
const MAX_BITS: usize = 256;

fn arb_frame() -> impl Strategy<Value = Frame> {
    (
        0u16..0x7F0,
        proptest::collection::vec(any::<u8>(), 0..=8),
        any::<bool>(),
        0u8..=8,
    )
        .prop_map(|(raw, data, remote, dlc)| {
            let id = FrameId::new(raw).expect("below reserved range");
            if remote {
                Frame::new_remote(id, dlc).expect("dlc within range")
            } else {
                Frame::new(id, &data).expect("payload within range")
            }
        })
}

proptest! {
    #[test]
    fn cursor_matches_recomputation_under_view_flips(
        frame in arb_frame(),
        eof_len in 6usize..=10,
        flips in proptest::collection::vec(any::<u8>(), MAX_BITS),
    ) {
        // About one view in 40 flipped: enough to corrupt the DLC, the
        // stuffing and the tail, not so many that every frame dies early
        // (roughly one case in twelve stays clean to the end).
        let wire = encode_frame(&frame, &StandardCan);
        let mut pipe = RxPipeline::new(eof_len);
        let mut clean = true;
        for (i, flip) in flips.iter().enumerate() {
            let level = wire.get(i).map_or(Level::Recessive, |wb| wb.level);
            clean &= *flip >= 6;
            let seen = if *flip < 6 { !level } else { level };
            // The encoder's tail is 7 EOF bits; compare up to the shorter.
            if clean && i < wire.len() - StandardCan.eof_len() + eof_len.min(7) {
                prop_assert_eq!(pipe.pos(), wire[i].pos, "cursor diverged from the encoder");
            }
            let before = pipe.pos();
            match pipe.push(seen) {
                RxStep::Ok | RxStep::FrameComplete => {
                    prop_assert_eq!(pipe.pos(), pipe.locate(), "cursor diverged after bit {}", i);
                }
                RxStep::StuffError | RxStep::FormError => {
                    prop_assert_eq!(pipe.pos(), before, "an error step moved the cursor");
                    break;
                }
            }
            if pipe.is_done() {
                prop_assert_eq!(pipe.pos().field, Field::Intermission);
                break;
            }
        }
    }
}

/// A stuff error on the stuff bit that follows the last CRC bit: the
/// destuffed index already equals the stuffed-region length there, so
/// recomputing the position panics in `field_at`. The error step leaves
/// the cursor on the offending stuff bit instead.
#[test]
fn stuff_error_on_the_final_crc_stuff_bit_keeps_the_cursor() {
    let last_crc_stuff = |wire: &[majorcan_can::WireBit]| {
        wire.iter()
            .position(|wb| wb.pos.field == Field::Crc && wb.pos.index == 14 && wb.pos.stuff)
    };
    let (wire, at) = (0u16..0x7F0)
        .flat_map(|raw| (0u8..=255).map(move |byte| (raw, byte)))
        .find_map(|(raw, byte)| {
            let frame = Frame::new(FrameId::new(raw).unwrap(), &[byte]).unwrap();
            let wire = encode_frame(&frame, &StandardCan);
            last_crc_stuff(&wire).map(|at| (wire, at))
        })
        .expect("some one-byte frame ends its CRC on a run of five");

    let mut pipe = RxPipeline::new(StandardCan.eof_len());
    for wb in &wire[..at] {
        assert_eq!(pipe.push(wb.level), RxStep::Ok);
    }
    let stuff_pos = wire[at].pos;
    assert_eq!(pipe.pos(), stuff_pos);
    // Repeating the run's level instead of complementing it.
    assert_eq!(pipe.push(wire[at - 1].level), RxStep::StuffError);
    assert_eq!(
        pipe.pos(),
        stuff_pos,
        "the error step must not move the cursor"
    );
    let recomputed = std::panic::catch_unwind(|| pipe.locate());
    assert!(recomputed.is_err(), "field_at past the stuffed region");
}
