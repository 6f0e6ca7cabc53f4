#include "dist/wire.h"

#include <cstring>
#include <utility>

#include "common/check.h"
#include "common/crc32.h"
#include "env/state_encoder.h"

namespace cews::dist {

namespace {

// Payload-local (sub-frame) serialization. Frames already carry the CRC;
// these writers/readers only need exact, bounds-checked field packing.

class ByteWriter {
 public:
  void U8(uint8_t v) { Raw(&v, sizeof(v)); }
  void U32(uint32_t v) { Raw(&v, sizeof(v)); }
  void U64(uint64_t v) { Raw(&v, sizeof(v)); }
  void I64(int64_t v) { Raw(&v, sizeof(v)); }
  void F32(float v) { Raw(&v, sizeof(v)); }
  void F64(double v) { Raw(&v, sizeof(v)); }

  void F32Vec(const std::vector<float>& v) {
    U64(v.size());
    Raw(v.data(), v.size() * sizeof(float));
  }

  void I32Vec(const std::vector<int>& v) {
    U64(v.size());
    for (int x : v) Raw(&x, sizeof(x));
  }

  void Raw(const void* p, size_t n) {
    out_.append(static_cast<const char*>(p), n);
  }

  std::string Take() { return std::move(out_); }

 private:
  std::string out_;
};

/// Bounds-checked forward-only reader (the nn/serialize.cc pattern): every
/// Read checks the remaining byte budget, so a lying length field fails
/// cleanly instead of over-reading.
class ByteReader {
 public:
  ByteReader(const char* data, size_t size) : data_(data), size_(size) {}

  bool Read(void* dst, size_t n) {
    if (size_ - pos_ < n) return false;
    std::memcpy(dst, data_ + pos_, n);
    pos_ += n;
    return true;
  }

  bool U8(uint8_t* v) { return Read(v, sizeof(*v)); }
  bool U32(uint32_t* v) { return Read(v, sizeof(*v)); }
  bool U64(uint64_t* v) { return Read(v, sizeof(*v)); }
  bool I64(int64_t* v) { return Read(v, sizeof(*v)); }
  bool F32(float* v) { return Read(v, sizeof(*v)); }
  bool F64(double* v) { return Read(v, sizeof(*v)); }

  bool F32Vec(std::vector<float>* v) {
    uint64_t n = 0;
    if (!U64(&n)) return false;
    if (remaining() < n * sizeof(float)) return false;
    v->resize(n);
    return Read(v->data(), n * sizeof(float));
  }

  bool I32Vec(std::vector<int>* v) {
    uint64_t n = 0;
    if (!U64(&n)) return false;
    if (remaining() < n * sizeof(int32_t)) return false;
    v->resize(n);
    for (uint64_t i = 0; i < n; ++i) {
      int32_t x = 0;
      if (!Read(&x, sizeof(x))) return false;
      (*v)[i] = x;
    }
    return true;
  }

  size_t remaining() const { return size_ - pos_; }

 private:
  const char* data_;
  size_t size_;
  size_t pos_ = 0;
};

Status Truncated(const char* what) {
  return Status::IOError(std::string("dist payload corrupt: truncated ") +
                         what);
}

void PackBuffer(ByteWriter& w, const agents::RolloutBuffer& buffer) {
  w.U64(buffer.size());
  for (size_t i = 0; i < buffer.size(); ++i) {
    const agents::Transition& t = buffer[i];
    w.F32Vec(t.state);
    w.I32Vec(t.moves);
    w.I32Vec(t.charges);
    w.F32(t.log_prob);
    w.F32(t.value);
    w.F32(t.reward);
    w.U8(t.done ? 1 : 0);
  }
  const bool has_adv = !buffer.advantages().empty();
  w.U8(has_adv ? 1 : 0);
  if (has_adv) {
    w.F32Vec(buffer.advantages());
    w.F32Vec(buffer.returns());
  }
}

Result<agents::RolloutBuffer> UnpackBuffer(ByteReader& r) {
  uint64_t count = 0;
  if (!r.U64(&count)) return Truncated("buffer header");
  // A transition is at least ~30 bytes on the wire; anything claiming more
  // entries than remaining bytes is corrupt.
  if (count > r.remaining()) return Truncated("buffer (implausible count)");
  std::vector<agents::Transition> transitions;
  transitions.reserve(count);
  for (uint64_t i = 0; i < count; ++i) {
    agents::Transition t;
    uint8_t done = 0;
    if (!r.F32Vec(&t.state) || !r.I32Vec(&t.moves) ||
        !r.I32Vec(&t.charges) || !r.F32(&t.log_prob) || !r.F32(&t.value) ||
        !r.F32(&t.reward) || !r.U8(&done)) {
      return Truncated("transition");
    }
    if (t.moves.size() != t.charges.size()) {
      return Status::IOError(
          "dist payload corrupt: per-worker move/charge size mismatch");
    }
    t.done = done != 0;
    transitions.push_back(std::move(t));
  }
  uint8_t has_adv = 0;
  if (!r.U8(&has_adv)) return Truncated("advantage flag");
  std::vector<float> advantages, returns;
  if (has_adv != 0) {
    if (!r.F32Vec(&advantages) || !r.F32Vec(&returns)) {
      return Truncated("advantages");
    }
    if (advantages.size() != transitions.size() ||
        returns.size() != transitions.size()) {
      return Status::IOError(
          "dist payload corrupt: advantage count does not match "
          "transitions");
    }
  }
  return agents::RolloutBuffer::FromParts(
      std::move(transitions), std::move(advantages), std::move(returns));
}

/// CRC-folding accumulator widened to 64 bits by running two differently
/// salted CRC-32 streams — cheap, stable, and good enough to catch any
/// real-world config/map divergence (this is a sanity handshake, not
/// crypto).
class Fingerprint {
 public:
  Fingerprint() {
    const uint32_t salt = 0x9E3779B9u;
    hi_.Update(&salt, sizeof(salt));
  }

  void Raw(const void* p, size_t n) {
    lo_.Update(p, n);
    hi_.Update(p, n);
  }

  template <typename T>
  void Value(const T& v) {
    Raw(&v, sizeof(v));
  }

  uint64_t Hash() const {
    return (static_cast<uint64_t>(hi_.Value()) << 32) | lo_.Value();
  }

 private:
  Crc32 lo_, hi_;
};

}  // namespace

std::string PackHello(const Hello& hello) {
  ByteWriter w;
  w.U32(hello.rank);
  w.U64(hello.config_hash);
  return w.Take();
}

Result<Hello> UnpackHello(const std::string& payload) {
  ByteReader r(payload.data(), payload.size());
  Hello hello;
  if (!r.U32(&hello.rank) || !r.U64(&hello.config_hash)) {
    return Truncated("hello");
  }
  if (r.remaining() != 0) {
    return Status::IOError("dist payload corrupt: trailing bytes in hello");
  }
  return hello;
}

std::string PackParams(const ParamUpdate& update) {
  ByteWriter w;
  w.U64(update.iteration);
  w.F32Vec(update.policy);
  w.F32Vec(update.intrinsic);
  return w.Take();
}

Result<ParamUpdate> UnpackParams(const std::string& payload) {
  ByteReader r(payload.data(), payload.size());
  ParamUpdate update;
  if (!r.U64(&update.iteration) || !r.F32Vec(&update.policy) ||
      !r.F32Vec(&update.intrinsic)) {
    return Truncated("params");
  }
  if (r.remaining() != 0) {
    return Status::IOError("dist payload corrupt: trailing bytes in params");
  }
  return update;
}

std::string PackRollout(const RolloutPayload& payload) {
  ByteWriter w;
  w.U32(payload.rank);
  w.U64(payload.iteration);
  w.U64(payload.buffers.size());
  for (const agents::RolloutBuffer& b : payload.buffers) PackBuffer(w, b);
  w.U64(payload.samples.size());
  for (const agents::CuriositySample& s : payload.samples) {
    w.U32(static_cast<uint32_t>(s.worker));
    w.U32(static_cast<uint32_t>(s.from.cell));
    w.F32(s.from.sx);
    w.F32(s.from.sy);
    w.U32(static_cast<uint32_t>(s.move));
    w.U32(static_cast<uint32_t>(s.to.cell));
    w.F32(s.to.sx);
    w.F32(s.to.sy);
  }
  w.F64(payload.stats.extrinsic_sum);
  w.F64(payload.stats.intrinsic_sum);
  w.F64(payload.stats.kappa);
  w.F64(payload.stats.xi);
  w.F64(payload.stats.rho);
  w.I64(payload.stats.env_steps);
  return w.Take();
}

Result<RolloutPayload> UnpackRollout(const std::string& payload) {
  ByteReader r(payload.data(), payload.size());
  RolloutPayload out;
  uint64_t num_buffers = 0;
  if (!r.U32(&out.rank) || !r.U64(&out.iteration) || !r.U64(&num_buffers)) {
    return Truncated("rollout header");
  }
  if (num_buffers > r.remaining()) {
    return Truncated("rollout (implausible buffer count)");
  }
  out.buffers.reserve(num_buffers);
  for (uint64_t i = 0; i < num_buffers; ++i) {
    CEWS_ASSIGN_OR_RETURN(agents::RolloutBuffer buffer, UnpackBuffer(r));
    out.buffers.push_back(std::move(buffer));
  }
  uint64_t num_samples = 0;
  if (!r.U64(&num_samples)) return Truncated("sample count");
  if (num_samples > r.remaining()) {
    return Truncated("rollout (implausible sample count)");
  }
  out.samples.reserve(num_samples);
  for (uint64_t i = 0; i < num_samples; ++i) {
    agents::CuriositySample s;
    uint32_t worker = 0, from_cell = 0, move = 0, to_cell = 0;
    if (!r.U32(&worker) || !r.U32(&from_cell) || !r.F32(&s.from.sx) ||
        !r.F32(&s.from.sy) || !r.U32(&move) || !r.U32(&to_cell) ||
        !r.F32(&s.to.sx) || !r.F32(&s.to.sy)) {
      return Truncated("curiosity sample");
    }
    s.worker = static_cast<int>(worker);
    s.from.cell = static_cast<int>(from_cell);
    s.move = static_cast<int>(move);
    s.to.cell = static_cast<int>(to_cell);
    out.samples.push_back(s);
  }
  if (!r.F64(&out.stats.extrinsic_sum) || !r.F64(&out.stats.intrinsic_sum) ||
      !r.F64(&out.stats.kappa) || !r.F64(&out.stats.xi) ||
      !r.F64(&out.stats.rho) || !r.I64(&out.stats.env_steps)) {
    return Truncated("rollout stats");
  }
  if (r.remaining() != 0) {
    return Status::IOError(
        "dist payload corrupt: trailing bytes in rollout");
  }
  return out;
}

Status ValidateRollout(const RolloutPayload& payload,
                       const agents::TrainerConfig& config) {
  const auto misfit = [](const std::string& what) {
    return Status::IOError("dist rollout does not fit the config: " + what);
  };
  const env::StateEncoder encoder(config.encoder);
  const size_t state_size = static_cast<size_t>(encoder.StateSize());
  const int cells = encoder.NumCells();
  const int workers = config.net.num_workers;
  const int moves = config.net.num_moves;
  if (payload.buffers.size() !=
      static_cast<size_t>(config.envs_per_employee)) {
    return misfit(std::to_string(payload.buffers.size()) + " buffers, " +
                  std::to_string(config.envs_per_employee) + " expected");
  }
  for (const agents::RolloutBuffer& buffer : payload.buffers) {
    if (buffer.size() != static_cast<size_t>(config.env.horizon)) {
      return misfit("a buffer holds " + std::to_string(buffer.size()) +
                    " transitions, horizon is " +
                    std::to_string(config.env.horizon));
    }
    if (buffer.advantages().empty()) {
      return misfit("a buffer carries no advantages");
    }
    for (size_t i = 0; i < buffer.size(); ++i) {
      const agents::Transition& t = buffer[i];
      if (t.state.size() != state_size) {
        return misfit("state of " + std::to_string(t.state.size()) +
                      " floats, encoder makes " + std::to_string(state_size));
      }
      if (t.moves.size() != static_cast<size_t>(workers) ||
          t.charges.size() != static_cast<size_t>(workers)) {
        return misfit(std::to_string(t.moves.size()) + " moves and " +
                      std::to_string(t.charges.size()) + " charges, " +
                      std::to_string(workers) + " workers expected");
      }
      for (int w = 0; w < workers; ++w) {
        const int move = t.moves[static_cast<size_t>(w)];
        const int charge = t.charges[static_cast<size_t>(w)];
        if (move < 0 || move >= moves) {
          return misfit("move index " + std::to_string(move) +
                        " outside [0, " + std::to_string(moves) + ")");
        }
        if (charge != 0 && charge != 1) {
          return misfit("charge index " + std::to_string(charge) +
                        " outside {0, 1}");
        }
      }
    }
  }
  for (const agents::CuriositySample& s : payload.samples) {
    if (s.worker < 0 || s.worker >= workers || s.move < 0 ||
        s.move >= moves || s.from.cell < 0 || s.from.cell >= cells ||
        s.to.cell < 0 || s.to.cell >= cells) {
      return misfit("curiosity sample (worker " + std::to_string(s.worker) +
                    ", cells " + std::to_string(s.from.cell) + " -> " +
                    std::to_string(s.to.cell) + ", move " +
                    std::to_string(s.move) + ") out of range");
    }
  }
  return Status::OK();
}

uint64_t ConfigHash(const agents::TrainerConfig& config,
                    const env::Map& map) {
  Fingerprint fp;
  // Trainer shape.
  fp.Value(config.num_employees);
  fp.Value(config.episodes);
  fp.Value(config.batch_size);
  fp.Value(config.update_epochs);
  fp.Value(config.envs_per_employee);
  fp.Value(config.seed);
  fp.Value(static_cast<int>(config.intrinsic));
  fp.Value(config.add_intrinsic_to_reward);
  fp.Value(config.reward_scale);
  fp.Value(config.normalize_rewards);
  fp.Value(static_cast<int>(config.reward_mode));
  // Net + PPO + intrinsic hyperparameters (plain-data structs of scalars).
  fp.Value(config.net.in_channels);
  fp.Value(config.net.grid);
  fp.Value(config.net.num_workers);
  fp.Value(config.net.num_moves);
  fp.Value(config.net.conv1_channels);
  fp.Value(config.net.conv2_channels);
  fp.Value(config.net.conv3_channels);
  fp.Value(config.net.feature_dim);
  // Structs with padding (mixed field widths, trailing bools) are folded
  // field-by-field — hashing raw struct bytes would read indeterminate
  // padding.
  fp.Value(config.ppo.gamma);
  fp.Value(config.ppo.gae_lambda);
  fp.Value(config.ppo.clip_eps);
  fp.Value(config.ppo.value_coef);
  fp.Value(config.ppo.entropy_coef);
  fp.Value(config.ppo.lr);
  fp.Value(config.ppo.max_grad_norm);
  fp.Value(config.ppo.normalize_advantages);
  fp.Value(static_cast<int>(config.curiosity.feature));
  fp.Value(static_cast<int>(config.curiosity.structure));
  fp.Value(config.curiosity.eta);
  fp.Value(config.curiosity.embed_dim);
  fp.Value(config.curiosity.hidden);
  fp.Value(config.curiosity.lr);
  fp.Value(config.rnd.state_size);
  fp.Value(config.rnd.hidden);
  fp.Value(config.rnd.out_dim);
  fp.Value(config.rnd.eta);
  fp.Value(config.rnd.lr);
  // Environment scalars (the per-worker override vectors too).
  fp.Value(config.env.horizon);
  fp.Value(config.env.sensing_range);
  fp.Value(config.env.collection_rate);
  fp.Value(config.env.alpha);
  fp.Value(config.env.beta);
  fp.Value(config.env.initial_energy);
  fp.Value(config.env.energy_capacity);
  fp.Value(config.env.charge_range);
  fp.Value(config.env.charge_rate);
  fp.Value(config.env.obstacle_penalty);
  fp.Value(config.env.epsilon1);
  fp.Value(config.env.epsilon2);
  fp.Raw(config.env.per_worker_sensing_range.data(),
         config.env.per_worker_sensing_range.size() * sizeof(double));
  fp.Raw(config.env.per_worker_initial_energy.data(),
         config.env.per_worker_initial_energy.size() * sizeof(double));
  fp.Raw(config.env.action_space.step_lengths().data(),
         config.env.action_space.step_lengths().size() * sizeof(double));
  fp.Value(config.encoder.grid);
  // Full map geometry: every PoI, obstacle, station and spawn. MapConfig
  // field-by-field (padding again); Position/Rect are all-double PODs.
  fp.Value(map.config.size_x);
  fp.Value(map.config.size_y);
  fp.Value(map.config.num_pois);
  fp.Value(map.config.num_stations);
  fp.Value(map.config.num_workers);
  fp.Value(map.config.num_clusters);
  fp.Value(map.config.cluster_sigma);
  fp.Value(map.config.uniform_fraction);
  fp.Value(map.config.corner_fraction);
  fp.Value(map.config.num_obstacles);
  fp.Value(map.config.obstacle_min_size);
  fp.Value(map.config.obstacle_max_size);
  fp.Value(map.config.hard_corner);
  fp.Value(map.config.corner_size);
  fp.Value(map.config.corner_wall);
  fp.Value(map.config.corner_gap);
  for (const env::Poi& poi : map.pois) {
    fp.Value(poi.pos);
    fp.Value(poi.initial_value);
  }
  for (const env::Rect& rect : map.obstacles) fp.Value(rect);
  for (const env::ChargingStation& st : map.stations) fp.Value(st.pos);
  for (const env::Position& spawn : map.worker_spawns) fp.Value(spawn);
  return fp.Hash();
}

}  // namespace cews::dist
