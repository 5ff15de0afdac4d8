// The multi-host coordinator is FabricCoordinator with FabricOptions::hosts
// set (see coordinator.hpp); this header keeps the RemoteCoordinator name.
#pragma once

#include "fabric/coordinator.hpp"
