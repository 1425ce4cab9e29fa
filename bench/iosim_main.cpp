// The single experiment driver: every paper table/figure, ablation, fault
// study, and the engine benchmark is a registered scenario.
//
//   iosim list
//   iosim run <name>... [--check] [--csv] [--scale=F | --full] [-j N]
//             [--metrics-out=PATH] [--golden=PATH] [--repeat=K] [--seed=N]
//   iosim run --all --check -j$(nproc)
#include "scenario/driver.hpp"

int main(int argc, char** argv) { return scenario::iosim_main(argc, argv); }
