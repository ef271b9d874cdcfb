//! Per-client round timelines: who was transmitting and who was waiting.
//!
//! This is the data behind the paper's Fig. 1 (uncompressed vs. uniform
//! compression vs. adaptive compression) — for each client the round is split
//! into a busy phase (training + uploading) and a waiting phase (idle until
//! the straggler finishes).

/// One client's view of a communication round.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct ClientTimeline {
    /// Client index within the selected cohort.
    pub client_id: usize,
    /// Time spent downloading the global model (seconds).
    pub download_s: f64,
    /// Time spent on local training (seconds).
    pub training_s: f64,
    /// Time spent uploading the (possibly compressed) update (seconds).
    pub upload_s: f64,
    /// Idle time waiting for the slowest client (seconds).
    pub waiting_s: f64,
}

impl ClientTimeline {
    /// Time this client is busy (download + training + upload).
    pub fn busy_s(&self) -> f64 {
        self.download_s + self.training_s + self.upload_s
    }

    /// Total wall-clock time including waiting.
    pub fn total_s(&self) -> f64 {
        self.busy_s() + self.waiting_s
    }
}

/// The timeline of one full round across the selected clients.
#[derive(Clone, Debug, Default)]
pub struct RoundTimeline {
    clients: Vec<ClientTimeline>,
}

impl RoundTimeline {
    /// Build the round timeline from per-client busy phases; waiting times are
    /// derived so every client finishes together with the straggler
    /// (synchronous FL).
    pub fn synchronous(download_s: &[f64], training_s: &[f64], upload_s: &[f64]) -> Self {
        assert!(!download_s.is_empty(), "at least one client required");
        assert_eq!(download_s.len(), training_s.len());
        assert_eq!(download_s.len(), upload_s.len());
        let busy: Vec<f64> = (0..download_s.len())
            .map(|i| download_s[i] + training_s[i] + upload_s[i])
            .collect();
        let round_end = busy.iter().cloned().fold(0.0f64, f64::max);
        let clients = (0..download_s.len())
            .map(|i| ClientTimeline {
                client_id: i,
                download_s: download_s[i],
                training_s: training_s[i],
                upload_s: upload_s[i],
                waiting_s: round_end - busy[i],
            })
            .collect();
        Self { clients }
    }

    /// Per-client timelines.
    pub fn clients(&self) -> &[ClientTimeline] {
        &self.clients
    }

    /// Round duration (the straggler's busy time).
    pub fn duration_s(&self) -> f64 {
        self.clients
            .iter()
            .map(|c| c.busy_s())
            .fold(0.0f64, f64::max)
    }

    /// Render as CSV (`client,download,training,upload,waiting`).
    pub fn to_csv(&self) -> String {
        let mut out = String::from("client,download_s,training_s,upload_s,waiting_s\n");
        for c in &self.clients {
            out.push_str(&format!(
                "{},{:.6},{:.6},{:.6},{:.6}\n",
                c.client_id, c.download_s, c.training_s, c.upload_s, c.waiting_s
            ));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn synchronous_waiting_derivation() {
        let tl = RoundTimeline::synchronous(&[0.1, 0.1, 0.1], &[1.0, 1.0, 1.0], &[0.5, 1.5, 2.5]);
        assert_eq!(tl.duration_s(), 3.6);
        let waits: Vec<f64> = tl.clients().iter().map(|c| c.waiting_s).collect();
        assert!((waits[0] - 2.0).abs() < 1e-9);
        assert!((waits[1] - 1.0).abs() < 1e-9);
        assert!((waits[2] - 0.0).abs() < 1e-9);
        // Every client ends at the same wall-clock time.
        for c in tl.clients() {
            assert!((c.total_s() - 3.6).abs() < 1e-9);
        }
    }

    #[test]
    fn csv_has_header_and_rows() {
        let tl = RoundTimeline::synchronous(&[0.1, 0.1], &[1.0, 1.0], &[0.2, 0.4]);
        let csv = tl.to_csv();
        assert_eq!(csv.lines().count(), 3);
        assert!(csv.starts_with("client,"));
    }

    #[test]
    #[should_panic]
    fn empty_round_rejected() {
        RoundTimeline::synchronous(&[], &[], &[]);
    }
}
