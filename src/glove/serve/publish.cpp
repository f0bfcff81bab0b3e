#include "glove/serve/publish.hpp"

#include <algorithm>
#include <filesystem>
#include <memory>
#include <stdexcept>
#include <utility>

#include "glove/api/sink.hpp"
#include "glove/cdr/builder.hpp"
#include "glove/obs/metrics.hpp"
#include "glove/obs/span.hpp"

namespace glove::serve {

namespace {

/// Fixed-width epoch tag, so lexicographic directory order equals epoch
/// order for any realistic daemon lifetime.
std::string epoch_tag(std::uint64_t epoch) {
  std::string digits = std::to_string(epoch);
  if (digits.size() < 6) digits.insert(0, 6 - digits.size(), '0');
  return digits;
}

}  // namespace

SnapshotPublisher::SnapshotPublisher(const ServeConfig& config,
                                     const api::Engine& engine)
    : config_{&config}, engine_{&engine} {
  if (config.snapshot_format != "csv" && config.snapshot_format != "glovebin") {
    throw std::invalid_argument{"unknown snapshot format: " +
                                config.snapshot_format};
  }
  if (config.run.incremental.published != nullptr) {
    throw std::invalid_argument{
        "serve manages the incremental published base; leave "
        "run.incremental.published null"};
  }
}

bool SnapshotPublisher::is_published_user(cdr::UserId user) const {
  return std::binary_search(published_ids_.begin(), published_ids_.end(),
                            user);
}

EpochResult SnapshotPublisher::publish_window(const ClosedWindow& window) {
  GLOVE_SPAN("serve.publish");
  static const obs::Counter c_dropped =
      obs::counter("serve.events_dropped_published");
  static const obs::Counter c_deferred =
      obs::counter("serve.windows_deferred");
  static const obs::Counter c_published =
      obs::counter("serve.snapshots_published");
  static const obs::Gauge g_users = obs::gauge("serve.published_users");
  static const obs::Gauge g_groups = obs::gauge("serve.published_groups");

  EpochResult result;
  for (const cdr::CdrEvent& event : window.events) {
    if (is_published_user(event.user)) {
      // The user's group is already released with an immutable
      // generalized fingerprint; folding fresh events into it would
      // republish a changed release for the same group.
      c_dropped.add();
    } else {
      pending_.push_back(event);
    }
  }
  if (pending_.empty()) return result;

  cdr::FingerprintDataset candidates =
      cdr::build_fingerprints(pending_, config_->builder);
  api::RunConfig run = config_->run;
  if (epoch_ == 0) {
    // No release exists yet: the first epoch needs a full batch pass, and
    // that pass can only be k-anonymous once k users are pending.
    if (candidates.size() < run.k) {
      c_deferred.add();
      return result;
    }
  } else {
    run.strategy = std::string{api::kStrategyIncremental};
    run.incremental.published = &published_;
  }
  candidates.set_name(config_->dataset_name + "-epoch-" +
                      std::to_string(epoch_ + 1) + "-input");

  api::Result<api::RunReport> outcome = engine_->run(candidates, run);
  if (!outcome.ok()) {
    throw std::runtime_error{
        "serve: epoch " + std::to_string(epoch_ + 1) +
        " anonymization failed [" +
        std::string{api::to_string(outcome.error().code)} +
        "]: " + outcome.error().message};
  }
  api::RunReport report = std::move(outcome).value();

  ++epoch_;
  result.epoch = epoch_;
  result.published = true;
  result.newcomers = candidates.size();
  published_ = std::move(report.anonymized);
  report.anonymized = cdr::FingerprintDataset{};
  published_.set_name(config_->dataset_name + "-epoch-" +
                      std::to_string(epoch_));
  for (const cdr::Fingerprint& fp : candidates.fingerprints()) {
    published_ids_.push_back(fp.members().front());
  }
  std::sort(published_ids_.begin(), published_ids_.end());
  pending_.clear();
  result.total_groups = published_.size();
  result.total_users = published_ids_.size();
  g_users.set(static_cast<double>(result.total_users));
  g_groups.set(static_cast<double>(result.total_groups));

  write_snapshot(result);
  write_report(std::move(report), window, result);
  c_published.add();
  return result;
}

void SnapshotPublisher::write_snapshot(EpochResult& result) {
  GLOVE_SPAN("serve.publish.snapshot");
  const std::string ext =
      config_->snapshot_format == "glovebin" ? ".glovebin" : ".csv";
  const std::string file =
      config_->out_dir + "/snapshot-" + epoch_tag(epoch_) + ext;
  // Publish via temp-then-rename: the rename is atomic on POSIX, so a
  // consumer polling out_dir sees either no file or a complete snapshot.
  const std::string tmp = file + ".tmp";
  {
    const std::unique_ptr<api::DatasetSink> sink =
        api::make_dataset_sink(tmp, config_->snapshot_format);
    sink->begin(published_.name());
    for (const cdr::Fingerprint& fp : published_.fingerprints()) {
      sink->write(fp);
    }
    sink->finish();
  }
  std::filesystem::rename(tmp, file);
  result.snapshot_path = file;
}

void SnapshotPublisher::write_report(api::RunReport report,
                                     const ClosedWindow& window,
                                     EpochResult& result) {
  api::set_metric(report, "epoch", static_cast<double>(epoch_));
  api::set_metric(report, "window_begin_min", window.bounds.begin_min);
  api::set_metric(report, "window_end_min", window.bounds.end_min);
  api::set_metric(report, "new_users", static_cast<double>(result.newcomers));
  api::set_metric(report, "published_users_total",
                  static_cast<double>(result.total_users));
  api::set_metric(report, "published_groups_total",
                  static_cast<double>(result.total_groups));
  const std::string file =
      config_->out_dir + "/report-" + epoch_tag(epoch_) + ".json";
  // The dotted temp name stays invisible to "report-*.json" globs until
  // the rename.
  const std::string tmp =
      config_->out_dir + "/.tmp-report-" + epoch_tag(epoch_) + ".json";
  api::write_report_file(tmp, report);
  std::filesystem::rename(tmp, file);
  result.report_path = file;
}

}  // namespace glove::serve
