// Serving a DFE farm: compile one network into a pool of identical engine
// replicas (the paper's MPC-X node of DFE boards), put the admission-
// controlled micro-batching server in front of it, mirror 1 in 4 served
// requests to the golden model (ReferenceExecutor) for a bit-exact
// comparison, and drive it with an open-loop Poisson workload.
//
//   admission queue -> micro-batcher -> replica pool -> metrics
//                                                    -> reference shadow
//
// The shadow never answers a client; its comparisons land in the metrics.
//
// Build & run:  ./serve_farm
#include <iostream>

#include "io/synthetic.h"
#include "models/zoo.h"
#include "nn/reference.h"
#include "serve/load_generator.h"
#include "serve/server.h"

int main() {
  using namespace qnn;
  const NetworkSpec spec = models::tiny(12, 4, 2);
  const Pipeline pipeline = expand(spec);
  const NetworkParams params = NetworkParams::random(pipeline, 1);
  SessionConfig session_config;
  session_config.fast_estimate = true;  // every replica runs one engine

  ServerConfig cfg;
  cfg.replicas = 2;             // two modeled DFE boards
  cfg.max_batch = 8;            // micro-batch closes at 8 requests...
  cfg.batch_timeout_us = 1000;  // ...or 1 ms after it opens
  cfg.queue_capacity = 64;  // bounded admission: reject, don't queue forever
  cfg.default_deadline_us = 100000;  // 100 ms per-request deadline
  cfg.shadow_fraction = 0.25;        // mirror 1 in 4 served requests

  std::cout << "compiling " << cfg.replicas << " " << spec.name
            << " replicas...\n";
  DfeServer server(spec, params, cfg, session_config);
  for (int i = 0; i < server.replicas(); ++i) {
    std::cout << "  replica " << i << ": " << server.replica(i).kind()
              << "\n";
  }
  std::cout << "\n" << server.replica(0).report() << "\n";

  // One synchronous request end to end.
  const auto images = synthetic_batch(8, 12, 12, 3, 2);
  const InferenceResult one = server.submit(images.front());
  std::cout << "single request: " << to_string(one.status) << ", class "
            << ReferenceExecutor::argmax(one.logits) << ", " << one.total_us
            << " us end to end, served by replica " << one.replica << "\n\n";

  // Open-loop Poisson traffic: arrivals do not wait for completions, so
  // this measures the farm at a fixed offered rate.
  LoadGenerator gen(server, images);
  std::cout << "driving 2000 qps of Poisson traffic (600 requests)...\n";
  const LoadResult burst = gen.open_loop(2000.0, 600, /*seed=*/3);
  std::cout << "  " << burst.str() << "\n\n";

  server.stop();  // drains the queue and the shadow mirror
  std::cout << server.metrics_report();
  return 0;
}
