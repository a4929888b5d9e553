//! Bad fixture: a helper returns an exact position as plain floats and
//! the caller encodes them into a server-bound frame. The field-marker
//! rule sees only `u64`/`f64` fields — catching this takes the
//! interprocedural dataflow pass.

// lint: server-bound
pub struct TelemetryFrame {
    pub subject: u64,
    pub ax: f64,
    pub ay: f64,
}

fn exact_of(shard: &PositionTable, id: u64) -> Point {
    shard.entry(id)
}

fn snap(shard: &PositionTable, id: u64) -> (f64, f64) {
    let p = exact_of(shard, id);
    (p.x, p.y)
}

pub fn emit(shard: &PositionTable, id: u64, out: &mut Vec<u8>) {
    let (ax, ay) = snap(shard, id);
    let frame = TelemetryFrame {
        subject: id,
        ax,
        ay,
    };
    encode_telemetry(out, &frame);
}

pub fn encode_telemetry(out: &mut Vec<u8>, frame: &TelemetryFrame) {
    out.extend_from_slice(&frame.subject.to_le_bytes());
    out.extend_from_slice(&frame.ax.to_le_bytes());
    out.extend_from_slice(&frame.ay.to_le_bytes());
}
