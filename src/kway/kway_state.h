// KWayState lives in partition/kway_state.h (the 2-way PROP engine runs on
// it at k = 2); this header keeps the historical include path working.
#pragma once

#include "partition/kway_state.h"
