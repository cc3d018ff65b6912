//! Plaintext metrics exposition: the pull-style scrape document.
//!
//! [`render_exposition`] renders one [`MetricsSnapshot`] — the per-kind
//! request counters and latency histograms, the connection and reactor
//! gauges, the engine's cache and worker-pool stats,
//! and the stream time-to-first-chunk histogram — as one text document in
//! the Prometheus exposition format (version 0.0.4): `# HELP` / `# TYPE`
//! headers per family, one `name{labels} value` sample per line,
//! histograms as cumulative `le` buckets plus `_sum` / `_count`. It walks
//! the same metric catalogue the `stats` payload is rendered from
//! ([`crate::metrics`]); the families, their order, types, labels and HELP
//! texts are written down only there. The same document is served by the
//! `metrics` request kind (inside a JSON reply) and by the
//! `--metrics-addr` HTTP listener ([`crate::scrape`]).
//!
//! The document is a *pure function of the snapshot*: same counters, same
//! bytes, whichever front end produced them. Only the uptime gauge (wall
//! clock) and the `backend` label of the build-info gauge depend on
//! anything other than the counters. Every label value the renderer emits is
//! `[a-zA-Z0-9_.-]+`, so no label escaping is ever needed.
//!
//! [`validate_exposition`] is the matching line-by-line checker used by the
//! integration tests and the `--smoke` harness: it fails on any sample
//! without a preceding `# TYPE`, duplicated families or samples,
//! non-monotone histogram buckets, or a histogram whose `+Inf` bucket
//! disagrees with its `_count`.

use crate::metrics::{MetricsSnapshot, Source, FAMILIES};
use lcl_paths::classifier::obs::HistogramSnapshot;
use lcl_paths::problem::json::JsonValue;
use std::collections::BTreeMap;
use std::fmt::Write;

/// Appends one `lcl_{name}{labels} value` sample line.
fn sample(out: &mut String, name: &str, labels: &str, value: u64) {
    let _ = writeln!(out, "lcl_{name}{labels} {value}");
}

/// A whole histogram family body for one label set: cumulative `le` buckets
/// (only the occupied ones, plus the mandatory `+Inf`), then `_sum` and
/// `_count`. `labels` is the rendered non-`le` label set (e.g.
/// `kind="solve",`, trailing comma included), empty for an unlabelled
/// family.
fn histogram(out: &mut String, name: &str, labels: &str, snapshot: &HistogramSnapshot) {
    let bucket = format!("{name}_bucket");
    let mut cumulative = 0u64;
    for (upper, count) in snapshot.nonzero_buckets() {
        cumulative += count;
        sample(
            out,
            &bucket,
            &format!("{{{labels}le=\"{upper}\"}}"),
            cumulative,
        );
    }
    sample(
        out,
        &bucket,
        &format!("{{{labels}le=\"+Inf\"}}"),
        snapshot.count,
    );
    let plain = match labels.strip_suffix(',') {
        Some(labels) => format!("{{{labels}}}"),
        None => String::new(),
    };
    sample(out, &format!("{name}_sum"), &plain, snapshot.sum);
    sample(out, &format!("{name}_count"), &plain, snapshot.count);
}

/// Renders the metrics exposition document of one [`MetricsSnapshot`]
/// (`Service::metrics_snapshot`): every family of the catalogue, in order.
/// See the module docs for the format and stability guarantees.
pub fn render_exposition(snapshot: &MetricsSnapshot) -> String {
    let mut out = String::with_capacity(8 * 1024);
    for family in &FAMILIES {
        let name = family.name;
        let metric_type = match family.source {
            Source::BuildInfo | Source::Gauge(_) => "gauge",
            Source::Counter(_) | Source::KindCounter(_) | Source::LaneCounter => "counter",
            Source::KindLatency | Source::Histogram(_) => "histogram",
        };
        let _ = writeln!(out, "# HELP lcl_{name} {}", family.help);
        let _ = writeln!(out, "# TYPE lcl_{name} {metric_type}");
        match family.source {
            Source::BuildInfo => {
                let labels: Vec<String> = snapshot
                    .identity()
                    .into_iter()
                    .map(|(key, value)| match value {
                        JsonValue::Str(text) => format!("{key}=\"{text}\""),
                        value => format!("{key}=\"{}\"", value.to_json_string()),
                    })
                    .collect();
                sample(&mut out, name, &format!("{{{}}}", labels.join(",")), 1);
            }
            Source::Counter(value) | Source::Gauge(value) => {
                sample(&mut out, name, "", value(snapshot));
            }
            Source::KindCounter(value) => {
                for (label, kind) in snapshot.labelled_kinds() {
                    sample(
                        &mut out,
                        name,
                        &format!("{{kind=\"{label}\"}}"),
                        value(kind),
                    );
                }
            }
            Source::KindLatency => {
                for (label, kind) in snapshot.labelled_kinds() {
                    histogram(&mut out, name, &format!("kind=\"{label}\","), &kind.latency);
                }
            }
            Source::Histogram(value) => histogram(&mut out, name, "", value(snapshot)),
            Source::LaneCounter => {
                for (label, count) in snapshot.labelled_lanes() {
                    sample(&mut out, name, &format!("{{lane=\"{label}\"}}"), count);
                }
            }
        }
    }
    out
}

/// One parsed sample line: family-qualified name, rendered label set, value.
struct Sample<'a> {
    name: &'a str,
    labels: Vec<(&'a str, &'a str)>,
    value: f64,
}

/// Splits `name{labels} value` (labels optional); `Err` describes the flaw.
fn parse_sample(line: &str) -> Result<Sample<'_>, String> {
    let (name_labels, value) = line
        .rsplit_once(' ')
        .ok_or_else(|| format!("sample without a value: `{line}`"))?;
    let value: f64 = value
        .parse()
        .map_err(|_| format!("unparseable sample value: `{line}`"))?;
    if !value.is_finite() || value < 0.0 {
        return Err(format!("sample value out of range: `{line}`"));
    }
    let (name, labels) = match name_labels.split_once('{') {
        None => (name_labels, Vec::new()),
        Some((name, rest)) => {
            let body = rest
                .strip_suffix('}')
                .ok_or_else(|| format!("unterminated label set: `{line}`"))?;
            let mut labels = Vec::new();
            for pair in body.split(',') {
                let (key, value) = pair
                    .split_once('=')
                    .ok_or_else(|| format!("label without `=`: `{line}`"))?;
                let value = value
                    .strip_prefix('"')
                    .and_then(|v| v.strip_suffix('"'))
                    .ok_or_else(|| format!("unquoted label value: `{line}`"))?;
                labels.push((key, value));
            }
            (name, labels)
        }
    };
    if name.is_empty()
        || !name
            .chars()
            .all(|c| c.is_ascii_lowercase() || c.is_ascii_digit() || c == '_')
    {
        return Err(format!("invalid metric name: `{line}`"));
    }
    Ok(Sample {
        name,
        labels,
        value,
    })
}

/// The state accumulated for one histogram label set (labels minus `le`).
#[derive(Default)]
struct HistogramSeries {
    /// `(le, cumulative count)` in encounter order; `le` is `f64::INFINITY`
    /// for the `+Inf` bucket.
    buckets: Vec<(f64, f64)>,
    count: Option<f64>,
}

/// Line-by-line structural validation of a metrics exposition document.
///
/// Enforces what a scraper needs to trust the document: every sample's
/// family is declared by exactly one preceding `# TYPE` with a known type,
/// `# HELP` lines name their own family, histogram samples use only the
/// `_bucket` / `_sum` / `_count` suffixes, no `(name, labels)` pair repeats,
/// and every histogram label set has strictly increasing `le` bounds with
/// nondecreasing cumulative counts, ending in a `+Inf` bucket equal to its
/// `_count`. Returns the first flaw found.
pub fn validate_exposition(text: &str) -> Result<(), String> {
    let mut types: BTreeMap<&str, &str> = BTreeMap::new();
    let mut seen_samples: Vec<String> = Vec::new();
    let mut histograms: BTreeMap<String, HistogramSeries> = BTreeMap::new();

    for line in text.lines() {
        if line.is_empty() {
            return Err("blank line in exposition".to_string());
        }
        if let Some(rest) = line.strip_prefix("# TYPE ") {
            let (family, metric_type) = rest
                .split_once(' ')
                .ok_or_else(|| format!("malformed TYPE line: `{line}`"))?;
            if !matches!(metric_type, "counter" | "gauge" | "histogram") {
                return Err(format!("unknown metric type: `{line}`"));
            }
            if types.insert(family, metric_type).is_some() {
                return Err(format!("duplicate TYPE for `{family}`"));
            }
            continue;
        }
        if let Some(rest) = line.strip_prefix("# HELP ") {
            if rest.split_once(' ').is_none() {
                return Err(format!("HELP without text: `{line}`"));
            }
            continue;
        }
        if line.starts_with('#') {
            return Err(format!("unknown comment line: `{line}`"));
        }

        let sample = parse_sample(line)?;
        // Resolve the sample to its declared family: exact for counters and
        // gauges, suffixed for histograms.
        let histogram_family = ["_bucket", "_sum", "_count"].iter().find_map(|suffix| {
            sample
                .name
                .strip_suffix(suffix)
                .filter(|family| types.get(family) == Some(&"histogram"))
                .map(|family| (family, *suffix))
        });
        let family = match histogram_family {
            Some((family, _)) => family,
            None => sample.name,
        };
        match types.get(family) {
            None => return Err(format!("sample before its TYPE: `{line}`")),
            Some(&"histogram") if histogram_family.is_none() => {
                return Err(format!("bare sample of a histogram family: `{line}`"));
            }
            Some(_) => {}
        }

        let key = format!("{}{:?}", sample.name, sample.labels);
        if seen_samples.contains(&key) {
            return Err(format!("duplicate sample: `{line}`"));
        }
        seen_samples.push(key);

        if let Some((family, suffix)) = histogram_family {
            let series_labels: Vec<&(&str, &str)> = sample
                .labels
                .iter()
                .filter(|(key, _)| *key != "le")
                .collect();
            let series = histograms
                .entry(format!("{family}{series_labels:?}"))
                .or_default();
            match suffix {
                "_bucket" => {
                    let le = sample
                        .labels
                        .iter()
                        .find(|(key, _)| *key == "le")
                        .ok_or_else(|| format!("bucket without le: `{line}`"))?
                        .1;
                    let bound = if le == "+Inf" {
                        f64::INFINITY
                    } else {
                        le.parse()
                            .map_err(|_| format!("unparseable le bound: `{line}`"))?
                    };
                    if let Some(&(last_bound, last_count)) = series.buckets.last() {
                        if bound <= last_bound {
                            return Err(format!("le bounds not increasing: `{line}`"));
                        }
                        if sample.value < last_count {
                            return Err(format!("bucket counts not monotone: `{line}`"));
                        }
                    }
                    series.buckets.push((bound, sample.value));
                }
                "_count" => series.count = Some(sample.value),
                _ => {}
            }
        }
    }

    if types.is_empty() {
        return Err("empty exposition".to_string());
    }
    for (key, series) in &histograms {
        let Some(&(last_bound, last_count)) = series.buckets.last() else {
            return Err(format!("histogram series without buckets: {key}"));
        };
        if last_bound != f64::INFINITY {
            return Err(format!("histogram series without +Inf bucket: {key}"));
        }
        let Some(count) = series.count else {
            return Err(format!("histogram series without _count: {key}"));
        };
        if last_count != count {
            return Err(format!(
                "+Inf bucket ({last_count}) disagrees with _count ({count}): {key}"
            ));
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{RequestKind, Service};
    use lcl_paths::Engine;
    use std::time::Duration;

    fn service() -> Service {
        Service::new(Engine::builder().parallelism(1).build())
    }

    /// The wall-clock-dependent line; everything else is pure counter state.
    fn strip_uptime(expo: &str) -> String {
        expo.lines()
            .filter(|line| !line.starts_with("lcl_uptime_seconds "))
            .collect::<Vec<_>>()
            .join("\n")
    }

    #[test]
    fn a_fresh_service_renders_a_valid_exposition() {
        let expo = render_exposition(&service().metrics_snapshot());
        validate_exposition(&expo).expect("fresh exposition validates");
        assert!(expo.ends_with('\n'));
        assert!(expo.contains("# TYPE lcl_requests_total counter"), "{expo}");
        assert!(expo.contains("lcl_requests_total{kind=\"metrics\"} 0"));
        assert!(expo.contains("# TYPE lcl_request_latency_micros histogram"));
        assert!(expo.contains("lcl_build_info{backend=\"none\""));
    }

    #[test]
    fn recorded_traffic_shows_up_with_monotone_buckets() {
        let service = service();
        for micros in [3u64, 9, 70, 70, 5_000] {
            service.metrics().record(
                Some(RequestKind::Classify),
                Duration::from_micros(micros),
                micros == 9,
            );
        }
        service.metrics().record(None, Duration::ZERO, false);
        let expo = render_exposition(&service.metrics_snapshot());
        validate_exposition(&expo).expect("validates");
        assert!(expo.contains("lcl_requests_total{kind=\"classify\"} 5"));
        assert!(expo.contains("lcl_request_errors_total{kind=\"classify\"} 4"));
        assert!(expo.contains("lcl_requests_total{kind=\"invalid\"} 1"));
        assert!(expo.contains("lcl_request_latency_micros_bucket{kind=\"classify\",le=\"+Inf\"} 5"));
        assert!(expo.contains("lcl_request_latency_micros_count{kind=\"classify\"} 5"));
        // The 1µs clamp: the invalid frame's zero elapsed still occupies a
        // bucket.
        assert!(expo.contains("lcl_request_latency_micros_bucket{kind=\"invalid\",le=\"+Inf\"} 1"));
    }

    #[test]
    fn the_exposition_is_a_pure_function_of_counter_state() {
        let build = || {
            let service = service();
            for micros in [10u64, 200, 9_000] {
                service.metrics().record(
                    Some(RequestKind::Solve),
                    Duration::from_micros(micros),
                    true,
                );
            }
            service
                .metrics()
                .record_stream_first_chunk(Duration::from_micros(42));
            service.metrics().set_backend("reactor");
            service
        };
        let (a, b) = (build(), build());
        assert_eq!(
            strip_uptime(&render_exposition(&a.metrics_snapshot())),
            strip_uptime(&render_exposition(&b.metrics_snapshot())),
            "identical counter state must render to identical bytes"
        );
        // And rendering twice from the same quiesced service is stable too.
        assert_eq!(
            strip_uptime(&render_exposition(&a.metrics_snapshot())),
            strip_uptime(&render_exposition(&a.metrics_snapshot()))
        );
    }

    #[test]
    fn the_validator_rejects_malformed_documents() {
        for (doc, why) in [
            ("", "empty"),
            ("lcl_x 1\n", "sample before TYPE"),
            (
                "# TYPE lcl_x counter\nlcl_x 1\nlcl_x 1\n",
                "duplicate sample",
            ),
            (
                "# TYPE lcl_x counter\n# TYPE lcl_x counter\n",
                "duplicate TYPE",
            ),
            ("# TYPE lcl_x summary\n", "unknown type"),
            ("# TYPE lcl_x counter\nlcl_x nope\n", "bad value"),
            (
                "# TYPE lcl_x histogram\nlcl_x_bucket{le=\"1\"} 2\nlcl_x_bucket{le=\"8\"} 1\n",
                "non-monotone buckets",
            ),
            (
                "# TYPE lcl_x histogram\nlcl_x_bucket{le=\"+Inf\"} 2\nlcl_x_count 1\n",
                "+Inf vs _count disagreement",
            ),
            (
                "# TYPE lcl_x histogram\nlcl_x_sum 3\nlcl_x_count 0\n",
                "histogram without buckets",
            ),
            ("# TYPE lcl_x histogram\nlcl_x 1\n", "bare histogram sample"),
        ] {
            assert!(validate_exposition(doc).is_err(), "{why} must be rejected");
        }
    }

    #[test]
    fn the_validator_accepts_a_well_formed_histogram() {
        let doc = "\
# HELP lcl_x latency
# TYPE lcl_x histogram
lcl_x_bucket{kind=\"a\",le=\"8\"} 1
lcl_x_bucket{kind=\"a\",le=\"64\"} 3
lcl_x_bucket{kind=\"a\",le=\"+Inf\"} 3
lcl_x_sum{kind=\"a\"} 90
lcl_x_count{kind=\"a\"} 3
lcl_x_bucket{kind=\"b\",le=\"+Inf\"} 0
lcl_x_sum{kind=\"b\"} 0
lcl_x_count{kind=\"b\"} 0
";
        validate_exposition(doc).expect("two label sets, one family");
    }

    /// Scrapes race the recorders in production: a render taken while
    /// another thread records must still be a valid document (a histogram
    /// whose `+Inf` bucket fell below its last `le` bucket is not).
    #[test]
    fn live_scrapes_stay_valid_while_another_thread_records() {
        use std::sync::atomic::{AtomicBool, Ordering};
        const RENDERS: usize = 5_000;
        let service = service();
        let stop = AtomicBool::new(false);
        let invalid = std::thread::scope(|scope| {
            scope.spawn(|| {
                let mut micros = 1u64;
                while !stop.load(Ordering::Relaxed) {
                    let elapsed = Duration::from_micros(micros);
                    service
                        .metrics()
                        .record(Some(RequestKind::Classify), elapsed, true);
                    service.metrics().record_stream_first_chunk(elapsed);
                    micros = micros % 5_000 + 7;
                }
            });
            let invalid: Vec<String> = (0..RENDERS)
                .filter_map(|_| {
                    validate_exposition(&render_exposition(&service.metrics_snapshot())).err()
                })
                .collect();
            stop.store(true, Ordering::Relaxed);
            invalid
        });
        assert!(
            invalid.is_empty(),
            "{} of {RENDERS} live renders invalid, first: {}",
            invalid.len(),
            invalid[0]
        );
    }

    /// A fixed service driven through a scripted counter history that
    /// calls every recording method. No wall-clock latency is recorded (the
    /// classifies go straight to the engine), so both renderings are fully
    /// deterministic apart from the uptime fields.
    fn golden_service() -> Service {
        use lcl_paths::problems;
        let service = Service::new(Engine::builder().parallelism(2).build());
        let metrics = service.metrics();
        metrics.set_backend("reactor");
        let kinds = RequestKind::ALL.iter().map(|&k| Some(k)).chain([None]);
        for (at, kind) in kinds.enumerate() {
            let at = at as u64;
            for step in 0..=at % 3 {
                let micros = 3 + at * 97 + step * 1_013;
                metrics.record(kind, Duration::from_micros(micros), step != 1);
            }
            if at.is_multiple_of(4) {
                metrics.record_shed(kind);
                metrics.record(kind, Duration::ZERO, false);
            }
        }
        for micros in [40u64, 900, 12_000] {
            metrics.record_stream_first_chunk(Duration::from_micros(micros));
        }
        for _ in 0..3 {
            metrics.pipeline_enter();
        }
        metrics.pipeline_exit();
        for _ in 0..4 {
            metrics.connection_opened();
        }
        metrics.connection_closed();
        metrics.connection_rejected();
        metrics.connection_rejected();
        for _ in 0..5 {
            metrics.reactor_wakeup();
        }
        metrics.reactor_completions(7);
        metrics.record_spliced_frame();
        metrics.record_spliced_frame();
        for _ in 0..3 {
            metrics.record_writev_batch();
        }
        metrics.record_classify_lane(None);
        metrics.record_classify_lane(None);
        metrics.record_classify_lane(Some(lcl_paths::classifier::Stage::Facing));

        let engine = service.engine();
        let three = problems::coloring(3);
        for problem in [
            &three,
            &three,
            &problems::coloring(4),
            &problems::maximal_independent_set(),
        ] {
            engine.classify(problem).expect("classify");
        }
        for _ in 0..2 {
            engine
                .cached_reply(&three, |_| b"{}".to_vec())
                .expect("cached");
        }
        service
    }

    /// The `stats` payload as served, with the wall-clock fields removed.
    fn golden_stats(service: &Service) -> String {
        let reply = service.handle_line(r#"{"v":1,"id":1,"kind":"stats"}"#);
        let mut payload = reply.result.expect("stats succeeds");
        let JsonValue::Object(fields) = &mut payload else {
            panic!("stats payload is an object");
        };
        fields.remove("uptime_ms");
        if let Some(JsonValue::Object(server)) = fields.get_mut("server") {
            server.remove("uptime_seconds");
        }
        payload.to_json_string()
    }

    #[test]
    fn golden_exposition_and_stats_bytes_are_pinned() {
        let service = golden_service();
        let expo = render_exposition(&service.metrics_snapshot());
        validate_exposition(&expo).expect("golden exposition validates");
        let expo: String = expo
            .lines()
            .filter(|line| !line.starts_with("lcl_uptime_seconds "))
            .map(|line| format!("{line}\n"))
            .collect();
        assert_eq!(expo, GOLDEN_EXPOSITION);
        assert_eq!(golden_stats(&service), GOLDEN_STATS);
    }

    /// [`golden_service`]'s exposition, `lcl_uptime_seconds` sample removed.
    const GOLDEN_EXPOSITION: &str = r##"# HELP lcl_build_info Constant 1; the labels carry the server identity and configuration.
# TYPE lcl_build_info gauge
lcl_build_info{backend="reactor",version="0.2.0",workers="2"} 1
# HELP lcl_uptime_seconds Wall-clock seconds since the service was constructed.
# TYPE lcl_uptime_seconds gauge
# HELP lcl_requests_total Frames handled, by request kind (invalid = never resolved to one).
# TYPE lcl_requests_total counter
lcl_requests_total{kind="classify"} 2
lcl_requests_total{kind="classify_many"} 2
lcl_requests_total{kind="solve"} 3
lcl_requests_total{kind="solve_stream"} 1
lcl_requests_total{kind="generate"} 3
lcl_requests_total{kind="stats"} 3
lcl_requests_total{kind="health"} 1
lcl_requests_total{kind="metrics"} 2
lcl_requests_total{kind="snapshot"} 4
lcl_requests_total{kind="invalid"} 1
# HELP lcl_request_errors_total Frames answered with an error reply, by request kind.
# TYPE lcl_request_errors_total counter
lcl_request_errors_total{kind="classify"} 1
lcl_request_errors_total{kind="classify_many"} 1
lcl_request_errors_total{kind="solve"} 1
lcl_request_errors_total{kind="solve_stream"} 0
lcl_request_errors_total{kind="generate"} 2
lcl_request_errors_total{kind="stats"} 1
lcl_request_errors_total{kind="health"} 0
lcl_request_errors_total{kind="metrics"} 1
lcl_request_errors_total{kind="snapshot"} 2
lcl_request_errors_total{kind="invalid"} 0
# HELP lcl_shed_total Frames rejected at admission (load shed or quota), by request kind; every shed frame is also counted in requests_total and request_errors_total.
# TYPE lcl_shed_total counter
lcl_shed_total{kind="classify"} 1
lcl_shed_total{kind="classify_many"} 0
lcl_shed_total{kind="solve"} 0
lcl_shed_total{kind="solve_stream"} 0
lcl_shed_total{kind="generate"} 1
lcl_shed_total{kind="stats"} 0
lcl_shed_total{kind="health"} 0
lcl_shed_total{kind="metrics"} 0
lcl_shed_total{kind="snapshot"} 1
lcl_shed_total{kind="invalid"} 0
# HELP lcl_request_latency_micros End-to-end request handling latency in microseconds, by kind (empty while detailed metrics are off).
# TYPE lcl_request_latency_micros histogram
lcl_request_latency_micros_bucket{kind="classify",le="1"} 1
lcl_request_latency_micros_bucket{kind="classify",le="3"} 2
lcl_request_latency_micros_bucket{kind="classify",le="+Inf"} 2
lcl_request_latency_micros_sum{kind="classify"} 4
lcl_request_latency_micros_count{kind="classify"} 2
lcl_request_latency_micros_bucket{kind="classify_many",le="103"} 1
lcl_request_latency_micros_bucket{kind="classify_many",le="1151"} 2
lcl_request_latency_micros_bucket{kind="classify_many",le="+Inf"} 2
lcl_request_latency_micros_sum{kind="classify_many"} 1213
lcl_request_latency_micros_count{kind="classify_many"} 2
lcl_request_latency_micros_bucket{kind="solve",le="207"} 1
lcl_request_latency_micros_bucket{kind="solve",le="1279"} 2
lcl_request_latency_micros_bucket{kind="solve",le="2303"} 3
lcl_request_latency_micros_bucket{kind="solve",le="+Inf"} 3
lcl_request_latency_micros_sum{kind="solve"} 3630
lcl_request_latency_micros_count{kind="solve"} 3
lcl_request_latency_micros_bucket{kind="solve_stream",le="319"} 1
lcl_request_latency_micros_bucket{kind="solve_stream",le="+Inf"} 1
lcl_request_latency_micros_sum{kind="solve_stream"} 294
lcl_request_latency_micros_count{kind="solve_stream"} 1
lcl_request_latency_micros_bucket{kind="generate",le="1"} 1
lcl_request_latency_micros_bucket{kind="generate",le="415"} 2
lcl_request_latency_micros_bucket{kind="generate",le="1407"} 3
lcl_request_latency_micros_bucket{kind="generate",le="+Inf"} 3
lcl_request_latency_micros_sum{kind="generate"} 1796
lcl_request_latency_micros_count{kind="generate"} 3
lcl_request_latency_micros_bucket{kind="stats",le="511"} 1
lcl_request_latency_micros_bucket{kind="stats",le="1535"} 2
lcl_request_latency_micros_bucket{kind="stats",le="2559"} 3
lcl_request_latency_micros_bucket{kind="stats",le="+Inf"} 3
lcl_request_latency_micros_sum{kind="stats"} 4503
lcl_request_latency_micros_count{kind="stats"} 3
lcl_request_latency_micros_bucket{kind="health",le="639"} 1
lcl_request_latency_micros_bucket{kind="health",le="+Inf"} 1
lcl_request_latency_micros_sum{kind="health"} 585
lcl_request_latency_micros_count{kind="health"} 1
lcl_request_latency_micros_bucket{kind="metrics",le="703"} 1
lcl_request_latency_micros_bucket{kind="metrics",le="1791"} 2
lcl_request_latency_micros_bucket{kind="metrics",le="+Inf"} 2
lcl_request_latency_micros_sum{kind="metrics"} 2377
lcl_request_latency_micros_count{kind="metrics"} 2
lcl_request_latency_micros_bucket{kind="snapshot",le="1"} 1
lcl_request_latency_micros_bucket{kind="snapshot",le="831"} 2
lcl_request_latency_micros_bucket{kind="snapshot",le="1919"} 3
lcl_request_latency_micros_bucket{kind="snapshot",le="2815"} 4
lcl_request_latency_micros_bucket{kind="snapshot",le="+Inf"} 4
lcl_request_latency_micros_sum{kind="snapshot"} 5377
lcl_request_latency_micros_count{kind="snapshot"} 4
lcl_request_latency_micros_bucket{kind="invalid",le="895"} 1
lcl_request_latency_micros_bucket{kind="invalid",le="+Inf"} 1
lcl_request_latency_micros_sum{kind="invalid"} 876
lcl_request_latency_micros_count{kind="invalid"} 1
# HELP lcl_stream_first_chunk_micros solve_stream time-to-first-chunk in microseconds (the kind histogram has the full drain).
# TYPE lcl_stream_first_chunk_micros histogram
lcl_stream_first_chunk_micros_bucket{le="43"} 1
lcl_stream_first_chunk_micros_bucket{le="959"} 2
lcl_stream_first_chunk_micros_bucket{le="12287"} 3
lcl_stream_first_chunk_micros_bucket{le="+Inf"} 3
lcl_stream_first_chunk_micros_sum 12940
lcl_stream_first_chunk_micros_count 3
# HELP lcl_pipeline_inflight Pipelined requests dispatched and not yet answered.
# TYPE lcl_pipeline_inflight gauge
lcl_pipeline_inflight 2
# HELP lcl_pipeline_peak_inflight High-water mark of pipeline_inflight.
# TYPE lcl_pipeline_peak_inflight gauge
lcl_pipeline_peak_inflight 3
# HELP lcl_connections_open Currently open connections.
# TYPE lcl_connections_open gauge
lcl_connections_open 3
# HELP lcl_connections_peak High-water mark of connections_open.
# TYPE lcl_connections_peak gauge
lcl_connections_peak 4
# HELP lcl_connections_accepted_total Connections accepted and served.
# TYPE lcl_connections_accepted_total counter
lcl_connections_accepted_total 4
# HELP lcl_connections_rejected_total Connections closed at accept time by the --max-conns cap.
# TYPE lcl_connections_rejected_total counter
lcl_connections_rejected_total 2
# HELP lcl_reactor_wakeups_total Event-loop returns from epoll_wait (0 on other backends).
# TYPE lcl_reactor_wakeups_total counter
lcl_reactor_wakeups_total 5
# HELP lcl_reactor_completions_total Worker-pool completions the reactor consumed (0 on other backends).
# TYPE lcl_reactor_completions_total counter
lcl_reactor_completions_total 7
# HELP lcl_spliced_frames_total classify replies answered by splicing cached payload bytes around the request id, skipping serialization and the worker pool.
# TYPE lcl_spliced_frames_total counter
lcl_spliced_frames_total 2
# HELP lcl_classify_lane_total classify misses by lane: inline = classified on the dispatching thread within its work slice; a stage name = handed to a worker-pool job that continues from that stage.
# TYPE lcl_classify_lane_total counter
lcl_classify_lane_total{lane="inline"} 2
lcl_classify_lane_total{lane="types"} 0
lcl_classify_lane_total{lane="solvability"} 0
lcl_classify_lane_total{lane="facing"} 1
lcl_classify_lane_total{lane="patterns"} 0
lcl_classify_lane_total{lane="synthesis"} 0
# HELP lcl_writev_batches_total Vectored reply flushes issued by the reactor (one writev per sample; 0 on other backends).
# TYPE lcl_writev_batches_total counter
lcl_writev_batches_total 3
# HELP lcl_cache_hits_total Classification lookups served from the memo cache.
# TYPE lcl_cache_hits_total counter
lcl_cache_hits_total 3
# HELP lcl_cache_flight_leaders_total Single-flight leaders elected: cold-key classifications started.
# TYPE lcl_cache_flight_leaders_total counter
lcl_cache_flight_leaders_total 3
# HELP lcl_cache_flight_joins_total Requests served by parking on another request's in-flight classification (stampedes absorbed).
# TYPE lcl_cache_flight_joins_total counter
lcl_cache_flight_joins_total 0
# HELP lcl_cache_misses_total Classification lookups that had to be computed.
# TYPE lcl_cache_misses_total counter
lcl_cache_misses_total 3
# HELP lcl_cache_bytes_hits_total Classify hits answered by splicing the cached reply bytes (no JSON serialization).
# TYPE lcl_cache_bytes_hits_total counter
lcl_cache_bytes_hits_total 1
# HELP lcl_cache_bytes_misses_total Classify hits that had to render and attach the reply bytes (first hit per entry).
# TYPE lcl_cache_bytes_misses_total counter
lcl_cache_bytes_misses_total 1
# HELP lcl_cache_inserts_total Entries ever inserted into the memo cache.
# TYPE lcl_cache_inserts_total counter
lcl_cache_inserts_total 3
# HELP lcl_cache_evictions_total Entries removed from the memo cache (LRU victims and clears).
# TYPE lcl_cache_evictions_total counter
lcl_cache_evictions_total 0
# HELP lcl_cache_entries Problems currently cached.
# TYPE lcl_cache_entries gauge
lcl_cache_entries 3
# HELP lcl_cache_weight Total weight of the resident cache entries.
# TYPE lcl_cache_weight gauge
lcl_cache_weight 3
# HELP lcl_cache_peak_entries Upper bound on entries ever resident at once.
# TYPE lcl_cache_peak_entries gauge
lcl_cache_peak_entries 3
# HELP lcl_cache_peak_weight Upper bound on resident weight ever held at once.
# TYPE lcl_cache_peak_weight gauge
lcl_cache_peak_weight 3
# HELP lcl_pool_workers Long-lived worker threads.
# TYPE lcl_pool_workers gauge
lcl_pool_workers 2
# HELP lcl_pool_queue_depth Jobs submitted but not yet picked up by a worker.
# TYPE lcl_pool_queue_depth gauge
lcl_pool_queue_depth 0
# HELP lcl_pool_jobs_completed_total Jobs fully executed since the pool was built.
# TYPE lcl_pool_jobs_completed_total counter
lcl_pool_jobs_completed_total 0
"##;

    /// [`golden_service`]'s `stats` payload, uptime fields removed.
    const GOLDEN_STATS: &str = r##"{"cache":{"bytes_hits":1,"bytes_misses":1,"entries":3,"evictions":0,"flight_joins":0,"flight_leaders":3,"hit_ratio":"0.5000","hits":3,"inserts":3,"misses":3,"peak_entries":3,"peak_weight":3,"summary":"cache: 3 hits (0 joined) / 3 misses (50.0% hit ratio), 3 flight leaders, 3 entries (peak 3), weight 3 (peak 3), 0 evictions / 3 inserts, 1 bytes hits / 1 bytes misses","weight":3},"pool":{"jobs_completed":0,"queue_depth":0,"summary":"pool: 2 workers, queue depth 0, 0 jobs completed","workers":2},"server":{"backend":"reactor","classify_lanes":{"facing":1,"inline":2,"patterns":0,"solvability":0,"synthesis":0,"types":0},"connections":{"accepted":4,"open":3,"peak":4,"rejected":2},"kinds":{"classify":{"count":2,"errors":1,"max_micros":3,"mean_micros":2,"p50_micros":1,"p90_micros":3,"p999_micros":3,"p99_micros":3,"shed":1,"total_micros":4},"classify_many":{"count":2,"errors":1,"max_micros":1113,"mean_micros":606,"p50_micros":103,"p90_micros":1113,"p999_micros":1113,"p99_micros":1113,"shed":0,"total_micros":1213},"generate":{"count":3,"errors":2,"max_micros":1404,"mean_micros":598,"p50_micros":415,"p90_micros":1404,"p999_micros":1404,"p99_micros":1404,"shed":1,"total_micros":1796},"health":{"count":1,"errors":0,"max_micros":585,"mean_micros":585,"p50_micros":585,"p90_micros":585,"p999_micros":585,"p99_micros":585,"shed":0,"total_micros":585},"invalid":{"count":1,"errors":0,"max_micros":876,"mean_micros":876,"p50_micros":876,"p90_micros":876,"p999_micros":876,"p99_micros":876,"shed":0,"total_micros":876},"metrics":{"count":2,"errors":1,"max_micros":1695,"mean_micros":1188,"p50_micros":703,"p90_micros":1695,"p999_micros":1695,"p99_micros":1695,"shed":0,"total_micros":2377},"snapshot":{"count":4,"errors":2,"max_micros":2805,"mean_micros":1344,"p50_micros":831,"p90_micros":2805,"p999_micros":2805,"p99_micros":2805,"shed":1,"total_micros":5377},"solve":{"count":3,"errors":1,"max_micros":2223,"mean_micros":1210,"p50_micros":1279,"p90_micros":2223,"p999_micros":2223,"p99_micros":2223,"shed":0,"total_micros":3630},"solve_stream":{"count":1,"errors":0,"max_micros":294,"mean_micros":294,"p50_micros":294,"p90_micros":294,"p999_micros":294,"p99_micros":294,"shed":0,"total_micros":294},"stats":{"count":3,"errors":1,"max_micros":2514,"mean_micros":1501,"p50_micros":1535,"p90_micros":2514,"p999_micros":2514,"p99_micros":2514,"shed":0,"total_micros":4503}},"pipeline":{"inflight":2,"peak_inflight":3},"reactor":{"completions":7,"wakeups":5},"requests_served":22,"spliced_frames":2,"stream_first_chunk":{"count":3,"max_micros":12000,"mean_micros":4313,"p50_micros":959,"p90_micros":12000,"p999_micros":12000,"p99_micros":12000,"total_micros":12940},"version":"0.2.0","workers":2,"writev_batches":3}}"##;
}
