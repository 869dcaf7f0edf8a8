//! JSON encoding of run outcomes and comparisons (via `grid-ser`).
//!
//! These replace the serde derives the types carried when the workspace
//! could pull serde from crates.io. Encoding is *canonical* — object keys
//! sorted, `BTreeMap`-ordered job records — so the same outcome always
//! produces identical bytes; the campaign result cache depends on that.

use std::collections::BTreeMap;

use grid_batch::JobId;
use grid_des::SimTime;
use grid_ser::json::SerError;
use grid_ser::Value;

use crate::compare::{Comparison, JobRecord, RunOutcome};

impl JobRecord {
    /// Compact array form `[id, submit, start, completion, cluster, reallocations]`.
    pub fn to_json(&self) -> Value {
        Value::Arr(vec![
            Value::UInt(self.id.0),
            Value::UInt(self.submit.0),
            Value::UInt(self.start.0),
            Value::UInt(self.completion.0),
            Value::UInt(self.cluster as u64),
            Value::UInt(u64::from(self.reallocations)),
        ])
    }

    /// Decode the array form.
    pub fn from_json(v: &Value) -> Result<JobRecord, SerError> {
        let arr = v
            .as_arr()
            .filter(|a| a.len() == 6)
            .ok_or_else(|| SerError::new("job record must be a 6-element array"))?;
        let n = |i: usize, what: &str| -> Result<u64, SerError> {
            arr[i]
                .as_u64()
                .ok_or_else(|| SerError::new(format!("job record {what} must be an integer")))
        };
        Ok(JobRecord {
            id: JobId(n(0, "id")?),
            submit: SimTime(n(1, "submit")?),
            start: SimTime(n(2, "start")?),
            completion: SimTime(n(3, "completion")?),
            cluster: n(4, "cluster")? as usize,
            reallocations: u32::try_from(n(5, "reallocations")?)
                .map_err(|_| SerError::new("reallocation count overflows u32"))?,
        })
    }
}

impl RunOutcome {
    /// Full JSON object including per-job records.
    pub fn to_json(&self) -> Value {
        let mut obj = Value::object();
        obj.insert("total_reallocations", self.total_reallocations);
        obj.insert("active_ticks", self.active_ticks);
        obj.insert("total_ticks", self.total_ticks);
        obj.insert("contract_violations", self.contract_violations);
        // Only fault-injected runs carry the eviction counter; omitting
        // the zero keeps healthy-grid records byte-identical to every
        // record written before fault injection existed.
        if self.outage_evictions > 0 {
            obj.insert("outage_evictions", self.outage_evictions);
        }
        obj.insert("makespan", self.makespan.0);
        obj.insert(
            "records",
            Value::Arr(self.records.values().map(JobRecord::to_json).collect()),
        );
        obj
    }

    /// Decode [`RunOutcome::to_json`].
    pub fn from_json(v: &Value) -> Result<RunOutcome, SerError> {
        let mut records: BTreeMap<JobId, JobRecord> = BTreeMap::new();
        for rec in v.req_arr("records")? {
            let rec = JobRecord::from_json(rec)?;
            records.insert(rec.id, rec);
        }
        Ok(RunOutcome {
            records,
            total_reallocations: v.req_u64("total_reallocations")?,
            active_ticks: v.req_u64("active_ticks")?,
            total_ticks: v.req_u64("total_ticks")?,
            // Absent in records written before contract checking existed.
            contract_violations: v
                .get("contract_violations")
                .and_then(Value::as_u64)
                .unwrap_or(0),
            // Absent in healthy-grid records (and all pre-fault ones).
            outage_evictions: v
                .get("outage_evictions")
                .and_then(Value::as_u64)
                .unwrap_or(0),
            makespan: SimTime(v.req_u64("makespan")?),
        })
    }
}

impl Comparison {
    /// JSON object with every §3.4 metric field.
    pub fn to_json(&self) -> Value {
        let mut obj = Value::object();
        obj.insert("n_jobs", self.n_jobs);
        obj.insert("impacted", self.impacted);
        obj.insert("earlier", self.earlier);
        obj.insert("later", self.later);
        obj.insert("reallocations", self.reallocations);
        obj.insert("pct_impacted", self.pct_impacted);
        obj.insert("pct_earlier", self.pct_earlier);
        obj.insert("rel_avg_response", self.rel_avg_response);
        obj.insert("max_migrations", self.max_migrations);
        obj.insert(
            "mean_migrations_of_migrated",
            self.mean_migrations_of_migrated,
        );
        obj.insert("churned_jobs", self.churned_jobs);
        obj.insert("worst_response_s", self.worst_response_s);
        obj
    }

    /// Decode [`Comparison::to_json`].
    pub fn from_json(v: &Value) -> Result<Comparison, SerError> {
        Ok(Comparison {
            n_jobs: v.req_u64("n_jobs")? as usize,
            impacted: v.req_u64("impacted")? as usize,
            earlier: v.req_u64("earlier")? as usize,
            later: v.req_u64("later")? as usize,
            reallocations: v.req_u64("reallocations")?,
            pct_impacted: v.req_f64("pct_impacted")?,
            pct_earlier: v.req_f64("pct_earlier")?,
            rel_avg_response: v.req_f64("rel_avg_response")?,
            max_migrations: v.req_u64("max_migrations")? as u32,
            mean_migrations_of_migrated: v.req_f64("mean_migrations_of_migrated")?,
            churned_jobs: v.req_u64("churned_jobs")? as usize,
            worst_response_s: v.req_u64("worst_response_s")?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn outcome() -> RunOutcome {
        let mut o = RunOutcome::default();
        for i in 0..5u64 {
            o.push(JobRecord {
                id: JobId(i),
                submit: SimTime(i * 10),
                start: SimTime(i * 10 + 5),
                completion: SimTime(i * 10 + 50),
                cluster: (i % 3) as usize,
                reallocations: (i % 2) as u32,
            });
        }
        o.total_reallocations = 2;
        o.active_ticks = 1;
        o.total_ticks = 4;
        o
    }

    #[test]
    fn outcome_roundtrip() {
        let o = outcome();
        let v = o.to_json();
        let back = RunOutcome::from_json(&v).unwrap();
        assert_eq!(back.records, o.records);
        assert_eq!(back.total_reallocations, o.total_reallocations);
        assert_eq!(back.makespan, o.makespan);
        assert_eq!(back.total_ticks, o.total_ticks);
    }

    #[test]
    fn outcome_encoding_is_byte_stable() {
        assert_eq!(outcome().to_json().encode(), outcome().to_json().encode());
    }

    #[test]
    fn outage_evictions_serialise_only_when_present() {
        // Healthy runs stay byte-identical to pre-fault records…
        let clean = outcome().to_json().encode();
        assert!(!clean.contains("outage_evictions"));
        // …while fault runs round-trip the counter.
        let mut faulty = outcome();
        faulty.outage_evictions = 3;
        let encoded = faulty.to_json().encode();
        assert!(encoded.contains("\"outage_evictions\":3"));
        let back = RunOutcome::from_json(&faulty.to_json()).unwrap();
        assert_eq!(back.outage_evictions, 3);
        assert_eq!(
            RunOutcome::from_json(&outcome().to_json())
                .unwrap()
                .outage_evictions,
            0
        );
    }

    #[test]
    fn missing_contract_violations_defaults_to_zero() {
        let mut v = outcome().to_json();
        if let Value::Obj(m) = &mut v {
            m.remove("contract_violations");
        }
        assert_eq!(RunOutcome::from_json(&v).unwrap().contract_violations, 0);
    }

    #[test]
    fn comparison_roundtrip() {
        let c = Comparison {
            n_jobs: 100,
            impacted: 10,
            earlier: 7,
            later: 3,
            reallocations: 5,
            pct_impacted: 10.0,
            pct_earlier: 70.0,
            rel_avg_response: 0.9,
            max_migrations: 4,
            mean_migrations_of_migrated: 1.25,
            churned_jobs: 1,
            worst_response_s: 7200,
        };
        let back = Comparison::from_json(&c.to_json()).unwrap();
        assert_eq!(back, c);
    }

    #[test]
    fn malformed_records_rejected() {
        assert!(JobRecord::from_json(&Value::Arr(vec![Value::UInt(1)])).is_err());
        assert!(RunOutcome::from_json(&Value::object()).is_err());
    }
}
