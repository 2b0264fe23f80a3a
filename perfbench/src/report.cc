#include "report.h"

#include <time.h>

#include <chrono>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <sstream>

namespace csd::perfbench {

namespace {

std::string JsonString(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof(buf), "\\u%04x", c);
      out += buf;
    } else {
      out += c;
    }
  }
  return out + "\"";
}

std::string JsonNumber(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

}  // namespace

void Report::AddMetric(std::string name, double value, std::string unit) {
  metrics_.push_back({std::move(name), value, std::move(unit)});
}

void Report::AddShape(std::string key, double value) {
  shape_.emplace_back(std::move(key), JsonNumber(value));
}

void Report::AddShape(std::string key, std::string value) {
  shape_.emplace_back(std::move(key), JsonString(value));
}

void Report::FailCheck(const std::string& what) {
  std::fprintf(stderr, "perfbench: output check failed: %s\n", what.c_str());
  correct_ = false;
}

std::string Report::LoadJson() const {
  std::ostringstream out;
  out << "{";
  for (size_t i = 0; i < shape_.size(); ++i) {
    if (i > 0) out << ", ";
    out << JsonString(shape_[i].first) << ": " << shape_[i].second;
  }
  out << "}";
  return out.str();
}

std::string Report::ResultJson() const {
  std::ostringstream out;
  out << "{\"correct\": " << (correct_ ? "true" : "false")
      << ", \"attempted\": " << attempted_ << ", \"failed\": " << failed_
      << ", \"metrics\": {";
  if (correct_) {
    for (size_t i = 0; i < metrics_.size(); ++i) {
      if (i > 0) out << ", ";
      out << JsonString(metrics_[i].name) << ": {\"value\": "
          << JsonNumber(metrics_[i].value)
          << ", \"unit\": " << JsonString(metrics_[i].unit) << "}";
    }
  }
  out << "}}";
  return out.str();
}

void Report::Print() const {
  std::printf("load %s\n%s\n", LoadJson().c_str(), ResultJson().c_str());
  std::fflush(stdout);
}

double PeakRssMb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::stod(line.substr(6)) / 1024.0;  // kB -> MiB
    }
  }
  return 0.0;
}

double NowSeconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

namespace {

double CpuSeconds(clockid_t clock) {
  timespec ts{};
  clock_gettime(clock, &ts);
  return static_cast<double>(ts.tv_sec) +
         1e-9 * static_cast<double>(ts.tv_nsec);
}

}  // namespace

double ThreadCpuSeconds() { return CpuSeconds(CLOCK_THREAD_CPUTIME_ID); }
double ProcessCpuSeconds() { return CpuSeconds(CLOCK_PROCESS_CPUTIME_ID); }

}  // namespace csd::perfbench
