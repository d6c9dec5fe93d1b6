// Vehicle-facing value types: turning movements, static traits ("char" in the
// paper's travel-plan tuple), and dynamic status ("status").
#pragma once

#include <array>
#include <string>

#include "geom/vec2.h"
#include "util/bytes.h"
#include "util/types.h"

namespace nwade::traffic {

/// Turning movement through the intersection.
enum class Turn : std::uint8_t { kLeft = 0, kStraight = 1, kRight = 2 };

inline const char* turn_name(Turn t) {
  switch (t) {
    case Turn::kLeft: return "left";
    case Turn::kStraight: return "straight";
    case Turn::kRight: return "right";
  }
  return "?";
}

/// Static, externally observable vehicle characteristics. The paper uses
/// these ("car brand, model, and color") to match incident reports and
/// evacuation alerts to physical vehicles.
struct VehicleTraits {
  std::uint8_t brand{0};
  std::uint8_t model{0};
  std::uint8_t color{0};
  double length_m{4.5};

  bool operator==(const VehicleTraits&) const = default;

  void serialize(ByteWriter& w) const {
    w.u8(brand);
    w.u8(model);
    w.u8(color);
    w.f64(length_m);
  }
  static VehicleTraits deserialize(ByteReader& r) {
    VehicleTraits t;
    t.brand = r.u8();
    t.model = r.u8();
    t.color = r.u8();
    t.length_m = r.f64();
    return t;
  }
};

/// Dynamic vehicle state: what sensors observe and what plans predict.
struct VehicleStatus {
  geom::Vec2 position;
  double speed_mps{0};
  double heading_rad{0};

  void serialize(ByteWriter& w) const {
    w.f64(position.x);
    w.f64(position.y);
    w.f64(speed_mps);
    w.f64(heading_rad);
  }
  static VehicleStatus deserialize(ByteReader& r) {
    VehicleStatus s;
    s.position.x = r.f64();
    s.position.y = r.f64();
    s.speed_mps = r.f64();
    s.heading_rad = r.f64();
    return s;
  }
};

/// Kinematic limits (paper defaults: 50 mph, 2 m/s^2 accel, 3 m/s^2 decel).
struct KinematicLimits {
  double speed_limit_mps{mph_to_mps(50.0)};
  double max_accel_mps2{2.0};
  double max_decel_mps2{3.0};
};

}  // namespace nwade::traffic
