// §IV-B4 scalability analysis:
//  * theoretical clocks-per-picture vs the cycle simulation (the paper's
//    ResNet-18 estimate is ~1.85e6 clocks, matching 16.1 ms @105 MHz);
//  * the Stratix 10 projection (5x clock -> 3-4 ms per image);
//  * frames-per-second for every workload (§V claims >60 fps everywhere).
#include <iostream>

#include "bench_util.h"
#include "fpga/resource_model.h"
#include "perfmodel/fpga_estimate.h"
#include "sim/cycle_model.h"

int main() {
  using namespace qnn;
  bench::heading("Scalability — clocks per picture and fps (§IV-B4, §V)",
                 "Analytic bottleneck vs cycle simulation; fps at the "
                 "105 MHz Stratix V clock.");

  Table t({"workload", "analytic clocks", "simulated clocks", "ms @105MHz",
           "fps", ">60fps"});
  for (const auto& w : bench::paper_workloads()) {
    const Pipeline p = expand(w.spec);
    const SimConfig cfg;
    const auto analytic = analytic_bottleneck_cycles(p, cfg);
    const SimResult sim = simulate(p, cfg, 2);
    t.add_row({w.label, Table::integer(static_cast<std::int64_t>(analytic)),
               Table::integer(static_cast<std::int64_t>(sim.steady_interval)),
               Table::num(sim.ms_per_image(cfg)),
               Table::num(sim.images_per_second(cfg), 1),
               sim.images_per_second(cfg) > 60.0 ? "yes" : "NO"});
  }
  t.print(std::cout);
  std::cout << "\npaper: ResNet-18 ~1.85e6 clocks/picture, 16.1 ms "
               "measured @105 MHz.\n";

  bench::heading("Stratix 10 projection (§IV-B4)",
                 "5x fabric clock; the projection must also 'fit even "
                 "bigger networks onto a single FPGA' — shown with "
                 "ResNet-34.");
  Table s({"network", "device", "ms/img", "fps", "devices needed"});
  for (const auto& spec : {models::resnet18(224, 1000, 2),
                           models::resnet34(224, 1000, 2)}) {
    const Pipeline p = expand(spec);
    const auto r = estimate_resources(p);
    for (const FpgaDevice& dev :
         {stratix_v_5sgsd8(), stratix_10_projection()}) {
      SimConfig cfg;
      cfg.clock_hz = dev.clock_hz;
      const SimResult sim = simulate(p, cfg, 2);
      s.add_row({spec.name, dev.name, Table::num(sim.ms_per_image(cfg)),
                 Table::num(sim.images_per_second(cfg), 1),
                 Table::integer(r.devices_needed(dev))});
    }
  }
  s.print(std::cout);
  std::cout << "\npaper: Stratix 10 would reach 3-4 ms per image and fit "
               "bigger networks on one FPGA.\n";

  bench::heading("Interval growth with input size (VGG-like)",
                 "Streaming throughput scales with the pixel count.");
  Table g({"input", "clocks/img", "ms", "ratio vs 32"});
  std::uint64_t base = 0;
  for (int size : {32, 64, 96, 144, 224}) {
    const SimConfig cfg;
    const SimResult sim =
        simulate(expand(models::vgg_like(size, 10, 2)), cfg, 2);
    if (base == 0) base = sim.steady_interval;
    g.add_row({std::to_string(size),
               Table::integer(static_cast<std::int64_t>(sim.steady_interval)),
               Table::num(sim.ms_per_image(cfg)),
               Table::num(static_cast<double>(sim.steady_interval) /
                              static_cast<double>(base),
                          2)});
  }
  g.print(std::cout);

  return 0;
}
