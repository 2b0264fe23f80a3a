#include "serve_host.h"

#include <algorithm>

#include "inputs.h"
#include "io/binary_io.h"
#include "io/dataset_io.h"
#include "report.h"
#include "serve/frame.h"
#include "serve/net_client.h"
#include "shard/sharded_build.h"

namespace csd::perfbench {

void FoldLog::Record(uint32_t user, size_t count, double t) {
  std::lock_guard<std::mutex> lock(mutex_);
  if (user >= by_user_.size()) by_user_.resize(user + 1);
  by_user_[user].emplace_back(count, t);
}

std::optional<double> FoldLog::FoldedBy(uint32_t user, size_t fix) const {
  std::lock_guard<std::mutex> lock(mutex_);
  if (user >= by_user_.size()) return std::nullopt;
  const auto& log = by_user_[user];
  auto it = std::upper_bound(
      log.begin(), log.end(), fix,
      [](size_t f, const std::pair<size_t, double>& e) { return f < e.first; });
  if (it == log.end()) return std::nullopt;
  return it->second;
}

size_t FoldLog::Folded(uint32_t user) const {
  std::lock_guard<std::mutex> lock(mutex_);
  if (user >= by_user_.size() || by_user_[user].empty()) return 0;
  return by_user_[user].back().first;
}

Result<std::unique_ptr<ServeHost>> ServeHost::Start(const std::string& dir,
                                                    bool stream,
                                                    double origin_s,
                                                    HostSetup* setup) {
  InputPaths paths(dir);
  std::unique_ptr<ServeHost> host(new ServeHost());
  double t0 = NowSeconds();
  auto pois_or = ReadPoisCsv(paths.pois);
  if (!pois_or.ok()) return pois_or.status();
  double t1 = NowSeconds();
  auto journeys_or = ReadJourneysBinary(paths.trips);
  if (!journeys_or.ok()) return journeys_or.status();
  double t2 = NowSeconds();
  host->journeys_ = journeys_or.value().size();
  host->dataset_ = serve::MakeServeDataset(std::move(pois_or).value(),
                                           journeys_or.value());
  double t3 = NowSeconds();

  // csdctl serve's defaults (sigma 50, 60 min, rho 0.002, patterns on).
  serve::SnapshotOptions& snapshot_options = host->snapshot_options_;
  snapshot_options.miner.extraction.support_threshold = 50;
  snapshot_options.miner.extraction.temporal_constraint =
      60 * kSecondsPerMinute;
  snapshot_options.miner.extraction.density_threshold = 0.002;
  host->plan_ = shard::PlanForCity(host->dataset_->pois,
                                   ServePack().serve_shards,
                                   snapshot_options.miner.csd);
  auto initial = std::make_shared<serve::CsdSnapshot>(
      host->dataset_, snapshot_options, *host->plan_);
  double t4 = NowSeconds();

  host->store_ =
      std::make_unique<serve::ShardedSnapshotStore>(host->plan_->num_shards());
  host->store_->PublishAll(initial);
  initial.reset();
  serve::ServeOptions options;  // csdctl serve's batch/admission defaults
  options.snapshot = snapshot_options;
  host->service_ = std::make_unique<serve::ServeService>(
      host->store_.get(), *host->plan_, options);

  serve::NetServerOptions net_options;
  net_options.host = "127.0.0.1";
  net_options.port = 0;
  net_options.num_loops = kServerLoops;
  if (stream) {
    host->ingestor_ = std::make_unique<stream::StreamIngestor>(
        host->service_.get(), host->store_.get(), *host->plan_,
        host->dataset_);
    ServeHost* self = host.get();
    net_options.ingest_handler = [self](uint32_t user,
                                        std::span<const GpsPoint> fixes) {
      double begin = NowSeconds();
      Status folded = self->ingestor_->IngestFixes(user, fixes);
      double end = NowSeconds();
      if (folded.ok()) {
        std::lock_guard<std::mutex> lock(self->fold_mutex_);
        if (user >= self->user_fixes_.size()) {
          self->user_fixes_.resize(user + 1, 0);
        }
        self->user_fixes_[user] += fixes.size();
        self->fold_seconds_ += end - begin;
        self->fold_log_.Record(user, self->user_fixes_[user], end);
      }
      return folded;
    };
  }
  auto server_or = serve::NetServer::Start(host->service_.get(), net_options);
  if (!server_or.ok()) return server_or.status();
  host->server_ = std::move(server_or).value();
  double t5 = NowSeconds();

  // First answer: one annotate frame over loopback, at a POI position.
  auto client_or = serve::NetClient::Connect("127.0.0.1", host->port());
  if (!client_or.ok()) return client_or.status();
  std::vector<uint8_t> frame;
  std::vector<StayPoint> probe = {
      StayPoint(host->dataset_->pois.poi(0).position, 0)};
  serve::AppendAnnotateRequest(1, 0, probe, &frame);
  Status sent = client_or.value()->Send(frame);
  if (!sent.ok()) return sent;
  auto response_or = client_or.value()->ReadResponse();
  if (!response_or.ok()) return response_or.status();
  if (response_or.value().type != serve::FrameType::kAnnotateResp) {
    return Status::Internal("first annotate request was not answered");
  }
  double t6 = NowSeconds();

  setup->read_pois_s = t1 - t0;
  setup->read_journeys_s = t2 - t1;
  setup->dataset_s = t3 - t2;
  setup->snapshot_s = t4 - t3;
  setup->start_s = t5 - t4;
  setup->first_answer_s = t6 - t5;
  setup->total_s = t6 - origin_s;
  return host;
}

double ServeHost::fold_seconds() const {
  std::lock_guard<std::mutex> lock(fold_mutex_);
  return fold_seconds_;
}

void ServeHost::Shutdown() {
  if (shut_down_) return;
  shut_down_ = true;
  // csdctl's order: front end first (no more completions), then the
  // ingestor's tick work is quiescent, then the service drains.
  if (server_) server_->Shutdown();
  if (service_) service_->Shutdown();
}

ServeHost::~ServeHost() {
  Shutdown();
  // The ingestor unhooks its in-tile builder from the service on
  // destruction, so it goes before the service.
  ingestor_.reset();
  service_.reset();
}

}  // namespace csd::perfbench
