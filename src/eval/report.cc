#include "eval/report.h"

#include <fstream>
#include <iomanip>
#include <ostream>
#include <sstream>

namespace alex::eval {

void PrintHeader(std::ostream& os, const std::string& title) {
  os << "\n== " << title << " ==\n";
}

void PrintSeries(std::ostream& os, const std::string& title,
                 const ExperimentResult& result) {
  PrintHeader(os, title);
  os << std::setw(8) << "episode" << std::setw(11) << "precision"
     << std::setw(9) << "recall" << std::setw(11) << "f-measure"
     << std::setw(8) << "neg%" << std::setw(12) << "candidates" << "\n";
  os << std::fixed;
  for (const EpisodePoint& point : result.series) {
    os << std::setw(8) << point.episode << std::setprecision(3)
       << std::setw(11) << point.quality.precision << std::setw(9)
       << point.quality.recall << std::setw(11) << point.quality.f_measure
       << std::setprecision(1) << std::setw(8)
       << point.stats.NegativeFeedbackPercent() << std::setw(12)
       << point.quality.candidates;
    if (result.relaxed_episode >= 0 &&
        point.episode == result.relaxed_episode) {
      std::ostringstream percent;  // default format: 0.05 -> "5"
      percent << result.relaxed_change_fraction * 100.0;
      os << "   <- relaxed convergence (<" << percent.str() << "% change)";
    }
    os << "\n";
  }
  os.unsetf(std::ios::fixed);
  os << std::setprecision(6);
}

void PrintSummary(std::ostream& os, const ExperimentResult& result) {
  os << "ground truth links:      " << result.ground_truth_size << "\n"
     << "initial candidate links: " << result.initial_link_count << " ("
     << result.initial_correct << " correct)\n"
     << "new links discovered:    " << result.new_links_discovered << "\n"
     << "episodes run:            " << result.episodes
     << (result.converged ? " (converged)" : " (max episodes reached)")
     << "\n"
     << "relaxed convergence:     "
     << (result.relaxed_episode >= 0
             ? "episode " + std::to_string(result.relaxed_episode)
             : std::string("never"))
     << "\n"
     << "pre-processing:          " << std::fixed << std::setprecision(2)
     << result.init_seconds << " s (" << result.total_pairs
     << " raw pairs -> " << result.filtered_pairs << " in filtered space)\n"
     << "episode loop:            " << result.total_seconds << " s\n";
  os.unsetf(std::ios::fixed);
  os << std::setprecision(6);
  // Degradation block, printed only when the run actually hit endpoint
  // faults (query-driven loop over unreliable endpoints).
  size_t incomplete = 0, skipped = 0, retries = 0, opens = 0;
  for (const EpisodePoint& point : result.series) {
    incomplete += point.stats.incomplete_queries;
    skipped += point.stats.skipped_feedback;
    retries += point.stats.query_retries;
    opens += point.stats.breaker_opens;
  }
  if (incomplete > 0 || retries > 0 || opens > 0) {
    os << "incomplete queries:      " << incomplete << " (" << skipped
       << " feedback verdicts withheld)\n"
       << "endpoint retries:        " << retries << "\n"
       << "breaker opens:           " << opens << "\n";
  }
  // Serving block, printed only when the run went through the serving tier
  // (the final episode then carries cumulative epoch counters).
  if (!result.series.empty() &&
      result.series.back().stats.epochs_published > 0) {
    const core::EpisodeStats& last = result.series.back().stats;
    os << "epochs published:        " << last.epochs_published << "\n"
       << "snapshots retired:       " << last.snapshots_retired << "\n"
       << "max concurrent readers:  " << last.max_concurrent_readers << "\n";
  }
  // Aggregated-feedback block, printed only when votes flowed through the
  // FeedbackAggregator (vote-driven loop; counters are cumulative, so the
  // final episode carries the totals).
  if (!result.series.empty() &&
      result.series.back().stats.votes_recorded > 0) {
    const core::EpisodeStats& last = result.series.back().stats;
    os << "votes recorded:          " << last.votes_recorded << "\n"
       << "verdicts emitted:        " << last.verdicts_emitted << "\n"
       << "votes suppressed:        " << last.votes_suppressed << "\n"
       << "tallies evicted:         " << last.tallies_evicted << " ("
       << last.aggregator_pending << " still pending)\n";
  }
  // Live-ingest block, printed only when the run grew the stores through
  // IngestTriples (counters are cumulative; the final episode has totals).
  if (!result.series.empty() &&
      result.series.back().stats.ingest_epochs > 0) {
    const core::EpisodeStats& last = result.series.back().stats;
    os << "ingest epochs:           " << last.ingest_epochs << "\n"
       << "triples ingested:        " << last.triples_ingested << "\n"
       << "entities added:          " << last.entities_added << "\n"
       << "blocking merges:         " << last.blocking_merges << "\n"
       << "space overflow entries:  " << last.space_overflow_pairs << "\n";
  }
}

void WriteSeriesCsv(std::ostream& os, const ExperimentResult& result) {
  os << "episode,precision,recall,f_measure,neg_feedback_pct,candidates,"
        "seconds,incomplete_queries,skipped_feedback,query_retries,"
        "breaker_opens,epochs_published,snapshots_retired,"
        "max_concurrent_readers,votes_recorded,verdicts_emitted,"
        "aggregator_pending,votes_suppressed,tallies_evicted,"
        "triples_ingested,entities_added,blocking_merges,"
        "space_overflow_pairs,ingest_epochs\n";
  for (const EpisodePoint& point : result.series) {
    os << point.episode << ',' << point.quality.precision << ','
       << point.quality.recall << ',' << point.quality.f_measure << ','
       << point.stats.NegativeFeedbackPercent() << ','
       << point.quality.candidates << ',' << point.stats.seconds << ','
       << point.stats.incomplete_queries << ','
       << point.stats.skipped_feedback << ',' << point.stats.query_retries
       << ',' << point.stats.breaker_opens << ','
       << point.stats.epochs_published << ','
       << point.stats.snapshots_retired << ','
       << point.stats.max_concurrent_readers << ','
       << point.stats.votes_recorded << ',' << point.stats.verdicts_emitted
       << ',' << point.stats.aggregator_pending << ','
       << point.stats.votes_suppressed << ','
       << point.stats.tallies_evicted << ','
       << point.stats.triples_ingested << ','
       << point.stats.entities_added << ','
       << point.stats.blocking_merges << ','
       << point.stats.space_overflow_pairs << ','
       << point.stats.ingest_epochs << "\n";
  }
}

bool SaveSeriesCsv(const std::string& path,
                   const ExperimentResult& result) {
  std::ofstream out(path, std::ios::trunc);
  if (!out) return false;
  WriteSeriesCsv(out, result);
  return static_cast<bool>(out);
}

}  // namespace alex::eval
