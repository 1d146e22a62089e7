#include "backend/backend.h"

#include <algorithm>
#include <cctype>
#include <sstream>
#include <utility>

#include "backend/builtin.h"
#include "core/error.h"
#include "nn/reference.h"
#include "nn/summary.h"

namespace qnn {

std::string BackendSession::report() const {
  const BackendInfo& info = backend().info();
  std::ostringstream os;
  os << summarize(pipeline()) << "\n";
  os << "backend: " << info.name << " — " << info.description << "\n";
  return os.str();
}

IntTensor BackendSession::infer(const IntTensor& image) {
  std::vector<IntTensor> out = infer_batch({&image, 1});
  return std::move(out.front());
}

int BackendSession::classify(const IntTensor& image) {
  return ReferenceExecutor::argmax(infer(image));
}

Backend& BackendRegistry::register_backend(std::unique_ptr<Backend> backend) {
  QNN_CHECK(backend != nullptr, "cannot register a null backend");
  const std::string& name = backend->name();
  QNN_CHECK(!name.empty(), "backend name must not be empty");
  const std::lock_guard<std::mutex> lock(mu_);
  for (const auto& b : backends_) {
    QNN_CHECK(b->name() != name,
              "backend \"" + name + "\" is already registered");
  }
  backends_.push_back(std::move(backend));
  return *backends_.back();
}

Backend* BackendRegistry::find(std::string_view name) const {
  const std::lock_guard<std::mutex> lock(mu_);
  for (const auto& b : backends_) {
    if (b->name() == name) return b.get();
  }
  return nullptr;
}

namespace {

std::string lowercased(std::string_view s) {
  std::string out(s);
  for (char& c : out) {
    c = static_cast<char>(std::tolower(static_cast<unsigned char>(c)));
  }
  return out;
}

/// Edit distance, banded: callers only care about "one typo away".
std::size_t edit_distance(const std::string& a, const std::string& b) {
  std::vector<std::size_t> row(b.size() + 1);
  for (std::size_t j = 0; j <= b.size(); ++j) row[j] = j;
  for (std::size_t i = 1; i <= a.size(); ++i) {
    std::size_t diag = row[0];
    row[0] = i;
    for (std::size_t j = 1; j <= b.size(); ++j) {
      const std::size_t up = row[j];
      row[j] = std::min({row[j] + 1, row[j - 1] + 1,
                         diag + (a[i - 1] == b[j - 1] ? 0 : 1)});
      diag = up;
    }
  }
  return row[b.size()];
}

}  // namespace

Backend& BackendRegistry::at(std::string_view name) const {
  Backend* b = find(name);
  if (b != nullptr) return *b;
  std::string known;
  std::string nearest;
  std::size_t nearest_distance = 3;  // suggest only plausible typos
  const std::string wanted = lowercased(name);
  for (Backend* reg : all()) {
    if (!known.empty()) known += ", ";
    known += "\"" + reg->name() + "\"";
    const std::size_t d = edit_distance(wanted, lowercased(reg->name()));
    if (d < nearest_distance) {
      nearest_distance = d;
      nearest = reg->name();
    }
  }
  std::string message = "unknown backend \"" + std::string(name) +
                        "\" (registered: " + known + ")";
  if (!nearest.empty()) {
    message += "; did you mean \"" + nearest + "\"?";
  }
  throw Error(message);
}

std::vector<Backend*> BackendRegistry::all() const {
  const std::lock_guard<std::mutex> lock(mu_);
  std::vector<Backend*> out;
  out.reserve(backends_.size());
  for (const auto& b : backends_) out.push_back(b.get());
  return out;
}

int BackendRegistry::size() const {
  const std::lock_guard<std::mutex> lock(mu_);
  return static_cast<int>(backends_.size());
}

BackendRegistry& backend_registry() {
  static BackendRegistry* registry = [] {
    auto* r = new BackendRegistry();
    r->register_backend(make_engine_backend());
    return r;
  }();
  return *registry;
}

}  // namespace qnn
