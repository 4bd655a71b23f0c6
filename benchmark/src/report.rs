//! The result line: the last line of a run's standard output.
//!
//! `{"correct": …, "attempted": …, "failed": …, "metrics": {name: {"value":
//! …, "unit": …}, …}}` — written by [`result_line`], read back by `aa`
//! through [`ResultLine::parse`] (which understands exactly this layout).

/// Render the result line. Metrics keep the order given.
pub fn result_line(
    correct: bool,
    attempted: usize,
    failed: usize,
    metrics: &[(&str, f64, &str)],
) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, value, unit)| {
            format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \
         \"metrics\": {{{}}}}}",
        body.join(", ")
    )
}

/// A parsed result line.
#[derive(Debug, Clone, PartialEq)]
pub struct ResultLine {
    /// Every op verified and every workload invariant held.
    pub correct: bool,
    /// Ops attempted.
    pub attempted: u64,
    /// Ops that errored or failed verification.
    pub failed: u64,
    /// `(name, value)` in printed order.
    pub metrics: Vec<(String, f64)>,
}

impl ResultLine {
    /// Parse a line written by [`result_line`].
    pub fn parse(line: &str) -> Result<Self, String> {
        let after = |key: &str| -> Result<&str, String> {
            let pat = format!("\"{key}\": ");
            line.find(&pat)
                .map(|at| &line[at + pat.len()..])
                .ok_or_else(|| format!("result line has no {key:?}: {line}"))
        };
        let scalar = |key: &str| -> Result<&str, String> {
            let rest = after(key)?;
            Ok(&rest[..rest.find([',', '}']).unwrap_or(rest.len())])
        };
        let number = |text: &str| -> Result<f64, String> {
            text.trim()
                .parse::<f64>()
                .map_err(|e| format!("bad number {text:?}: {e}"))
        };
        let mut metrics = Vec::new();
        let mut rest = after("metrics")?;
        // Each metric is `"name": {"value": N, "unit": "u"}`.
        while let Some(open) = rest.find("\": {\"value\": ") {
            let name_start = rest[..open].rfind('"').ok_or("unquoted metric name")? + 1;
            let value_start = open + "\": {\"value\": ".len();
            let value_len = rest[value_start..].find(',').ok_or("unterminated metric")?;
            metrics.push((
                rest[name_start..open].to_string(),
                number(&rest[value_start..value_start + value_len])?,
            ));
            rest = &rest[value_start + value_len..];
        }
        Ok(Self {
            correct: scalar("correct")? == "true",
            attempted: number(scalar("attempted")?)? as u64,
            failed: number(scalar("failed")?)? as u64,
            metrics,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn result_line_round_trips() {
        let line = result_line(
            true,
            6000,
            0,
            &[("ops_per_s", 381.25, "1/s"), ("rel_error", 2.9e-8, "ratio")],
        );
        assert_eq!(
            line,
            "{\"correct\": true, \"attempted\": 6000, \"failed\": 0, \"metrics\": \
             {\"ops_per_s\": {\"value\": 381.25, \"unit\": \"1/s\"}, \
             \"rel_error\": {\"value\": 0.000000029, \"unit\": \"ratio\"}}}"
        );
        let parsed = ResultLine::parse(&line).unwrap();
        assert_eq!(
            parsed,
            ResultLine {
                correct: true,
                attempted: 6000,
                failed: 0,
                metrics: vec![
                    ("ops_per_s".to_string(), 381.25),
                    ("rel_error".to_string(), 2.9e-8)
                ],
            }
        );
        assert!(
            !ResultLine::parse(&result_line(false, 1, 1, &[]))
                .unwrap()
                .correct
        );
        assert!(ResultLine::parse("not a result").is_err());
    }
}
