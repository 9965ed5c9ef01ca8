//! The benchmark's own checks, at a tiny size: every metric
//! `BENCHMARK.json` names is printed with its unit, and the fail counter
//! trips when two runs that should agree do not.

use std::path::Path;

use nim_perfbench::check::Checker;
use nim_perfbench::{result_line, run, Size, WORKLOADS};

/// Just enough JSON for `BENCHMARK.json` and the result line.
#[derive(Clone, Debug, PartialEq)]
enum Json {
    Null,
    Bool(bool),
    Num(f64),
    Str(String),
    Arr(Vec<Json>),
    Obj(Vec<(String, Json)>),
}

impl Json {
    fn parse(text: &str) -> Json {
        let mut p = Parser {
            s: text.as_bytes(),
            i: 0,
        };
        let v = p.value();
        p.ws();
        assert_eq!(p.i, p.s.len(), "trailing text after JSON");
        v
    }

    fn get(&self, key: &str) -> &Json {
        match self {
            Json::Obj(kv) => {
                &kv.iter()
                    .find(|(k, _)| k == key)
                    .unwrap_or_else(|| panic!("no key {key}"))
                    .1
            }
            _ => panic!("not an object"),
        }
    }

    fn str(&self) -> &str {
        match self {
            Json::Str(s) => s,
            other => panic!("not a string: {other:?}"),
        }
    }

    fn num(&self) -> f64 {
        match self {
            Json::Num(n) => *n,
            other => panic!("not a number: {other:?}"),
        }
    }

    fn arr(&self) -> &[Json] {
        match self {
            Json::Arr(a) => a,
            other => panic!("not an array: {other:?}"),
        }
    }

    fn entries(&self) -> &[(String, Json)] {
        match self {
            Json::Obj(kv) => kv,
            other => panic!("not an object: {other:?}"),
        }
    }
}

struct Parser<'a> {
    s: &'a [u8],
    i: usize,
}

impl Parser<'_> {
    fn ws(&mut self) {
        while self.i < self.s.len() && self.s[self.i].is_ascii_whitespace() {
            self.i += 1;
        }
    }

    fn eat(&mut self, c: u8) {
        self.ws();
        assert_eq!(self.s[self.i], c, "expected {:?} at {}", c as char, self.i);
        self.i += 1;
    }

    fn value(&mut self) -> Json {
        self.ws();
        match self.s[self.i] {
            b'{' => {
                self.i += 1;
                let mut kv = Vec::new();
                self.ws();
                if self.s[self.i] == b'}' {
                    self.i += 1;
                    return Json::Obj(kv);
                }
                loop {
                    self.ws();
                    let Json::Str(k) = self.value() else {
                        panic!("object key")
                    };
                    self.eat(b':');
                    kv.push((k, self.value()));
                    self.ws();
                    self.i += 1;
                    if self.s[self.i - 1] == b'}' {
                        return Json::Obj(kv);
                    }
                }
            }
            b'[' => {
                self.i += 1;
                let mut items = Vec::new();
                self.ws();
                if self.s[self.i] == b']' {
                    self.i += 1;
                    return Json::Arr(items);
                }
                loop {
                    items.push(self.value());
                    self.ws();
                    self.i += 1;
                    if self.s[self.i - 1] == b']' {
                        return Json::Arr(items);
                    }
                }
            }
            b'"' => {
                self.i += 1;
                let start = self.i;
                while self.s[self.i] != b'"' {
                    assert_ne!(self.s[self.i], b'\\', "escapes are not used here");
                    self.i += 1;
                }
                self.i += 1;
                Json::Str(String::from_utf8(self.s[start..self.i - 1].to_vec()).unwrap())
            }
            b't' | b'f' | b'n' => {
                for (word, v) in [
                    ("true", Json::Bool(true)),
                    ("false", Json::Bool(false)),
                    ("null", Json::Null),
                ] {
                    if self.s[self.i..].starts_with(word.as_bytes()) {
                        self.i += word.len();
                        return v;
                    }
                }
                panic!("bad literal at {}", self.i)
            }
            _ => {
                let start = self.i;
                while self.i < self.s.len() && b"+-.eE0123456789".contains(&self.s[self.i]) {
                    self.i += 1;
                }
                Json::Num(
                    std::str::from_utf8(&self.s[start..self.i])
                        .unwrap()
                        .parse()
                        .unwrap(),
                )
            }
        }
    }
}

fn benchmark_json() -> Json {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    Json::parse(&std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root"))
}

/// `(name, unit)` of every metric in one list of `BENCHMARK.json`.
fn declared(list: &str) -> Vec<(String, String)> {
    benchmark_json()
        .get(list)
        .arr()
        .iter()
        .map(|m| {
            (
                m.get("name").str().to_string(),
                m.get("unit").str().to_string(),
            )
        })
        .collect()
}

/// Runs `workload` at the tiny size, untraced and traced, and checks each
/// result line carries exactly the declared metrics with their units.
fn prints_declared_metrics(workload: &str) {
    for (traced, list) in [(false, "end_to_end"), (true, "per_layer")] {
        let outcome = run(workload, 7, 0.0, traced, Size::tiny()).expect("tiny run");
        let line = Json::parse(&result_line(&outcome, traced));
        assert_eq!(
            line.get("correct"),
            &Json::Bool(true),
            "{workload}: {:?}",
            outcome.checker.failures
        );
        assert_eq!(line.get("failed").num(), 0.0);
        assert!(line.get("attempted").num() >= 1.0);
        let printed: Vec<(String, String)> = line
            .get("metrics")
            .entries()
            .iter()
            .map(|(k, v)| (k.clone(), v.get("unit").str().to_string()))
            .collect();
        assert_eq!(printed, declared(list), "{workload} {list}");
        if !traced {
            for (name, m) in line.get("metrics").entries() {
                assert!(
                    m.get("value").num() > 0.0,
                    "{workload} {name} must never be 0"
                );
            }
        }
    }
}

#[test]
fn workloads_match_benchmark_json() {
    let names: Vec<String> = benchmark_json()
        .get("workloads")
        .arr()
        .iter()
        .map(|w| w.get("name").str().to_string())
        .collect();
    assert_eq!(names, WORKLOADS);
}

#[test]
fn cell_noc_swim_prints_every_metric() {
    prints_declared_metrics("cell_noc_swim");
}

#[test]
fn cell_ideal_art_prints_every_metric() {
    prints_declared_metrics("cell_ideal_art");
}

#[test]
fn sweep_fig13_prints_every_metric() {
    prints_declared_metrics("sweep_fig13");
}

#[test]
fn ckpt_roll_swim_prints_every_metric() {
    prints_declared_metrics("ckpt_roll_swim");
}

#[test]
fn fail_counter_trips_when_runs_disagree() {
    let fingerprint = |seed| {
        let outcome = run("cell_noc_swim", seed, 0.0, false, Size::tiny()).expect("tiny run");
        assert_eq!(outcome.checker.failed, 0);
        outcome.checker.fingerprints[0].1
    };
    let (a, b, again) = (fingerprint(1), fingerprint(2), fingerprint(1));
    let mut chk = Checker::default();
    chk.same("seed 1 against itself", a, again);
    assert_eq!((chk.attempted, chk.failed), (1, 0));
    chk.same("seeds 1 and 2 compared as one cell", a, b);
    assert_eq!((chk.attempted, chk.failed), (2, 1));
    assert!(chk.fail_ratio() > 0.0);
}
