//! Liveness stress tests: the busy queue, staged movement and trap
//! reservation logic exercised on the tightest possible fabrics.

#![cfg(test)]

use qspr_fabric::{Fabric, TechParams};
use qspr_qasm::{random_program, Program, RandomProgramConfig};

use crate::engine::Mapper;
use crate::error::MapError;
use crate::placement::Placement;
use crate::policy::FlowPolicy;
use crate::validate::validate_trace;

/// A cross with exactly four traps around one junction.
const TINY_CROSS: &str = "\
..|..
T.|.T
--+--
T.|.T
..|..
";

#[test]
fn two_qubits_on_a_tiny_cross() {
    let f = Fabric::from_ascii(TINY_CROSS).unwrap();
    let tech = TechParams::date2012();
    let p = Program::parse("QUBIT a,0\nQUBIT b,0\nC-X a,b\nC-Z a,b\nH a\nC-Y b,a\n").unwrap();
    let placement = Placement::center(&f, 2);
    let out = Mapper::new(&f, tech, FlowPolicy::Qspr)
        .record_trace(true)
        .map(&p, &placement)
        .unwrap();
    validate_trace(&f, &p, &placement, out.trace().unwrap(), &tech).unwrap();
}

#[test]
fn four_qubits_saturate_four_traps_but_make_progress() {
    // Four qubits, four traps: every gate shuffles occupancy around the
    // single junction; the busy queue must keep finding free seats.
    let f = Fabric::from_ascii(TINY_CROSS).unwrap();
    let tech = TechParams::date2012();
    let p = Program::parse(
        "QUBIT a,0\nQUBIT b,0\nQUBIT c,0\nQUBIT d,0\n\
         C-X a,b\nC-X c,d\nC-X a,c\nC-X b,d\nC-X a,d\nC-X b,c\n",
    )
    .unwrap();
    let placement = Placement::center(&f, 4);
    let out = Mapper::new(&f, tech, FlowPolicy::Qspr)
        .record_trace(true)
        .map(&p, &placement)
        .unwrap();
    validate_trace(&f, &p, &placement, out.trace().unwrap(), &tech).unwrap();
}

#[test]
fn capacity_one_on_the_tiny_cross_still_completes() {
    let f = Fabric::from_ascii(TINY_CROSS).unwrap();
    let tech = TechParams::date2012().without_multiplexing();
    let p =
        Program::parse("QUBIT a,0\nQUBIT b,0\nQUBIT c,0\n C-X a,b\nC-X b,c\nC-X c,a\n").unwrap();
    let placement = Placement::center(&f, 3);
    let out = Mapper::new(&f, tech, FlowPolicy::Qspr)
        .record_trace(true)
        .map(&p, &placement)
        .unwrap();
    validate_trace(&f, &p, &placement, out.trace().unwrap(), &tech).unwrap();
}

#[test]
fn quale_storage_model_survives_the_tiny_cross() {
    let f = Fabric::from_ascii(TINY_CROSS).unwrap();
    let tech = TechParams::date2012();
    let p = Program::parse("QUBIT a,0\nQUBIT b,0\nQUBIT c,0\nC-X a,b\nC-X b,c\nC-X a,c\n").unwrap();
    let placement = Placement::center(&f, 3);
    let out = Mapper::new(&f, tech, FlowPolicy::Quale)
        .record_trace(true)
        .map(&p, &placement)
        .unwrap();
    // QUALE books at most one qubit per channel and junction.
    let quale_bound = tech.without_multiplexing();
    validate_trace(&f, &p, &placement, out.trace().unwrap(), &quale_bound).unwrap();
    // Return-to-home restores the start configuration.
    assert_eq!(out.final_placement(), &placement);
}

#[test]
fn overfull_fabric_stalls_cleanly_instead_of_deadlocking() {
    // Two traps, four qubits: every trap permanently holds two qubits, so
    // a cross-pair gate can never find a seat. The engine must detect the
    // stall and report it rather than spin.
    let two_traps = "\
.T.T.
--+--
..|..
";
    let f = Fabric::from_ascii(two_traps).unwrap();
    assert_eq!(f.topology().traps().len(), 2);
    let tech = TechParams::date2012();
    let p = Program::parse("QUBIT a,0\nQUBIT b,0\nQUBIT c,0\nQUBIT d,0\nC-X a,c\n").unwrap();
    // a,b share trap 0; c,d share trap 1.
    let traps = f.topology().traps_by_distance(f.center());
    let placement = Placement::new(vec![traps[0], traps[0], traps[1], traps[1]]).unwrap();
    let err = Mapper::new(&f, tech, FlowPolicy::Qspr)
        .map(&p, &placement)
        .unwrap_err();
    assert_eq!(err, MapError::Stalled { remaining: 1 });
}

#[test]
fn long_random_programs_on_a_small_fabric() {
    // A single-tile fabric with eight traps, hammered by 200-gate random
    // programs under every policy. Each trace is held to the capacities
    // its policy books: the technology's for QSPR, one for QUALE.
    let f = Fabric::regular(9, 9, 4).unwrap();
    let tech = TechParams::date2012();
    for (seed, policy, bound) in [
        (1u64, FlowPolicy::Qspr, tech),
        (2, FlowPolicy::Quale, tech.without_multiplexing()),
    ] {
        let p = random_program(&RandomProgramConfig::new(6, 200), seed);
        let placement = Placement::center(&f, 6);
        let out = Mapper::new(&f, tech, policy)
            .record_trace(true)
            .map(&p, &placement)
            .unwrap();
        validate_trace(&f, &p, &placement, out.trace().unwrap(), &bound).unwrap();
    }
}
