// The multi-host coordinator is FabricCoordinator with FabricOptions::hosts
// set (see coordinator.hpp).  This header remains only for perfbench/e2e.cpp;
// include fabric/coordinator.hpp instead.
#pragma once

#include "fabric/coordinator.hpp"
