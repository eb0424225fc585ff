//! Cross-crate invariant (experiment E2): the JSON interchange format is
//! lossless over the entire suite, strict about versioning, and stable.

use parchmint::Device;
use parchmint_suite::suite;

/// The suite plus the smallest FPVA rung, so both decoders also see a
/// valve-array document of over a thousand components.
fn suite_and_fpva_1k() -> impl Iterator<Item = parchmint_suite::Benchmark> {
    let fpva_1k = parchmint_suite::fpva_suite()
        .into_iter()
        .find(|b| b.name() == "fpva_1k")
        .expect("fpva_1k rung");
    suite().into_iter().chain(std::iter::once(fpva_1k))
}

#[test]
fn whole_suite_round_trips_compact() {
    for benchmark in suite_and_fpva_1k() {
        let device = benchmark.device();
        let json = device.to_json().expect("serialize");
        let back = Device::from_json(&json).expect("parse");
        assert_eq!(back, device, "{} lost data in round-trip", benchmark.name());
        let fast = Device::from_json_fast(&json).expect("fast parse");
        assert_eq!(
            fast,
            device,
            "{} lost data on the fast path",
            benchmark.name()
        );
    }
}

#[test]
fn whole_suite_round_trips_pretty() {
    for benchmark in suite_and_fpva_1k() {
        let device = benchmark.device();
        let json = device.to_json_pretty().expect("serialize");
        let back = Device::from_json(&json).expect("parse");
        assert_eq!(
            back,
            device,
            "{} lost data in pretty round-trip",
            benchmark.name()
        );
        let fast = Device::from_json_fast(&json).expect("fast parse");
        assert_eq!(
            fast,
            device,
            "{} lost data in pretty fast-path round-trip",
            benchmark.name()
        );
    }
}

#[test]
fn serialization_is_byte_stable() {
    for benchmark in suite() {
        let a = benchmark.device().to_json().unwrap();
        let b = benchmark.device().to_json().unwrap();
        assert_eq!(a, b, "{} serialization unstable", benchmark.name());
    }
}

#[test]
fn valve_maps_present_exactly_when_device_has_valves() {
    for benchmark in suite() {
        let device = benchmark.device();
        let json = device.to_json().unwrap();
        assert_eq!(
            json.contains("valveMap"),
            !device.valves.is_empty(),
            "{}",
            benchmark.name()
        );
        assert_eq!(
            json.contains("valveTypeMap"),
            !device.valves.is_empty(),
            "{}",
            benchmark.name()
        );
    }
}

#[test]
fn spans_serialize_in_kebab_case() {
    let device = parchmint_suite::by_name("logic_gate_or").unwrap().device();
    let json = device.to_json().unwrap();
    assert!(json.contains(r#""x-span""#));
    assert!(json.contains(r#""y-span""#));
    assert!(
        !json.contains("x_span"),
        "snake_case leaked into the wire format"
    );
}

#[test]
fn placed_and_routed_devices_round_trip_too() {
    let mut device = parchmint_suite::by_name("logic_gate_or").unwrap().device();
    parchmint_pnr::place_and_route(
        &mut device,
        parchmint_pnr::PlacerChoice::Greedy,
        parchmint_pnr::RouterChoice::AStar,
    );
    assert!(device.is_placed());
    let json = device.to_json_pretty().unwrap();
    let back = Device::from_json(&json).unwrap();
    assert_eq!(back, device);
    assert!(back.is_placed());
    // logic_gate_or has no valves, so physical design implies exactly 1.1.
    assert_eq!(back.version, parchmint::Version::V1_1);
}

#[test]
fn sizes_grow_with_the_synthetic_ladder() {
    let sizes: Vec<usize> = (1..=7)
        .map(|k| {
            parchmint_suite::planar_synthetic(k)
                .to_json()
                .unwrap()
                .len()
        })
        .collect();
    assert!(sizes.windows(2).all(|w| w[0] < w[1]), "{sizes:?}");
}

/// Floats the printer's two branches and the parser's number
/// classification disagree about most easily: integral values at and
/// past 1e16 (printed without a decimal point), signed zero, the
/// subnormal range, and values needing all 17 significant digits.
const EDGE_FLOATS: [f64; 10] = [
    1e16,
    -0.0,
    5e-324,
    f64::MIN_POSITIVE / 3.0,
    9_007_199_254_740_993.0,
    0.1,
    -1e300,
    1e-7,
    123_456_789_012_345_680.0,
    f64::MAX,
];

/// Integers at the edges of the signed and unsigned representations.
const EDGE_INTS: [i64; 4] = [i64::MIN, i64::MAX, 0, -1];

/// One character from a class chosen by `class`: control characters,
/// the escaped ASCII characters, plain ASCII, and 2-, 3- and 4-byte
/// UTF-8.
fn pick_char(class: u8, bits: u32) -> char {
    let pick = |chars: &[char]| chars[bits as usize % chars.len()];
    match class {
        0 => char::from_u32(bits % 0x20).expect("control character"),
        1 => pick(&['"', '\\', '/', '\u{7f}']),
        2 => char::from_u32(0x20 + bits % 0x5f).expect("printable ASCII"),
        3 => char::from_u32(0x80 + bits % 0x780).expect("2-byte UTF-8"),
        4 => char::from_u32(0xE000 + bits % 0x2000).expect("3-byte UTF-8"),
        _ => pick(&['é', '😀', '\u{10FFFF}', '\u{2028}']),
    }
}

/// Builds a `Value` from a flat program: scalars append to the open
/// container, `[`/`{` open one, `]` closes the innermost. Object members
/// are keyed by their op's text, so keys carry escapes too.
type Op = (u8, u64, Vec<(u8, u32)>);

fn build_value(ops: Vec<Op>) -> serde_json::Value {
    use serde_json::{Map, Value};
    fn attach(parent: &mut Value, key: String, child: Value) {
        match parent {
            Value::Array(items) => items.push(child),
            Value::Object(members) => {
                members.insert(key, child);
            }
            _ => unreachable!("only containers are open"),
        }
    }
    let mut open = vec![(String::new(), Value::Array(Vec::new()))];
    for (op, bits, text) in ops {
        let text: String = text.into_iter().map(|(c, b)| pick_char(c, b)).collect();
        let leaf = match op {
            0 => Value::Null,
            1 => Value::Bool(bits & 1 == 1),
            2 if bits % 3 == 0 => Value::from(EDGE_INTS[(bits / 3) as usize % EDGE_INTS.len()]),
            2 => Value::from(bits as i64),
            3 if bits % 3 == 0 => Value::from(u64::MAX - bits / 3 % 4),
            3 => Value::from(bits),
            4 if bits % 3 == 0 => Value::from(EDGE_FLOATS[(bits / 3) as usize % EDGE_FLOATS.len()]),
            // Non-finite bit patterns shift down into the subnormals.
            4 => Value::from(
                Some(f64::from_bits(bits))
                    .filter(|f| f.is_finite())
                    .unwrap_or(f64::from_bits(bits >> 12)),
            ),
            5 => Value::String(text.clone()),
            6 => {
                open.push((text, Value::Array(Vec::new())));
                continue;
            }
            7 => {
                open.push((text, Value::Object(Map::new())));
                continue;
            }
            _ => {
                if open.len() > 1 {
                    let (key, done) = open.pop().expect("an open container");
                    attach(&mut open.last_mut().expect("a parent").1, key, done);
                }
                continue;
            }
        };
        attach(&mut open.last_mut().expect("a container").1, text, leaf);
    }
    while open.len() > 1 {
        let (key, done) = open.pop().expect("an open container");
        attach(&mut open.last_mut().expect("a parent").1, key, done);
    }
    open.pop().expect("the root").1
}

/// The direct printer against the fragment printer, and the direct
/// parser against `from_str::<Value>`, on one value and its texts.
fn assert_kernels_agree(value: &serde_json::Value) {
    use serde_json::Value;
    let reference = serde_json::to_string(value).unwrap();
    let mut direct = String::new();
    serde_json::write_value(&mut direct, value);
    assert_eq!(direct, reference, "write_value differs from to_string");
    assert_eq!(
        value.to_string(),
        reference,
        "Display differs from to_string"
    );
    assert_eq!(parchmint_serve::hash::canonical_string(value), reference);
    for text in [reference, serde_json::to_string_pretty(value).unwrap()] {
        let direct = serde_json::parse_value(&text).unwrap();
        let reference: Value = serde_json::from_str(&text).unwrap();
        assert_eq!(direct, reference, "parse_value differs from from_str");
    }
}

proptest::proptest! {
    #![proptest_config(proptest::test_runner::ProptestConfig::with_cases(256))]

    /// Arbitrary values — escapes, control characters, non-ASCII text,
    /// edge floats and integers, nested containers — print to the same
    /// bytes through both printers and parse to the same tree through
    /// both parsers.
    #[test]
    fn direct_json_kernels_match_the_fragment_path(
        ops in proptest::collection::vec(
            (
                0u8..9,
                proptest::arbitrary::any::<u64>(),
                proptest::collection::vec((0u8..6, proptest::arbitrary::any::<u32>()), 0..6),
            ),
            1..48,
        )
    ) {
        assert_kernels_agree(&build_value(ops));
    }
}

#[test]
fn direct_json_kernels_match_on_every_suite_device() {
    for benchmark in suite_and_fpva_1k() {
        let value = serde_json::to_value(&benchmark.device()).expect("device serializes");
        assert_kernels_agree(&value);
    }
    let edges: Vec<serde_json::Value> = EDGE_FLOATS
        .iter()
        .map(|&f| serde_json::Value::from(f))
        .chain(EDGE_INTS.iter().map(|&i| serde_json::Value::from(i)))
        .chain([serde_json::Value::from(u64::MAX)])
        .collect();
    assert_kernels_agree(&serde_json::Value::from(edges));
}
