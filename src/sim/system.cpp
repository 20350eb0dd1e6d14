#include "sim/system.hpp"

namespace koika::sim {

bool
restorable(const System& system)
{
    bool env_ok = (system.save_env != nullptr) == (system.load_env != nullptr);
    return dynamic_cast<const CheckpointableModel*>(system.model.get()) &&
           env_ok && (system.save_env != nullptr || system.context == nullptr);
}

void
capture(const System& system, SystemState& state)
{
    const Model& model = *system.model;
    state.regs.resize(model.num_regs());
    for (size_t r = 0; r < state.regs.size(); ++r)
        state.regs[r] = model.get_reg((int)r);
    const auto* ckpt = dynamic_cast<const CheckpointableModel*>(&model);
    // Written into the previous capture's buffers: a batch forks many
    // lanes through one state, and a fresh allocation per fork costs.
    StateWriter engine(std::move(state.engine)), env(std::move(state.env));
    if (ckpt != nullptr)
        ckpt->save_extra_state(engine);
    if (system.save_env != nullptr)
        system.save_env(env);
    state.state_key = ckpt != nullptr ? ckpt->state_key() : "";
    state.engine = engine.take();
    state.env = env.take();
}

bool
restore(System& system, const SystemState& state)
{
    Model& model = *system.model;
    KOIKA_CHECK(state.regs.size() == model.num_regs());
    for (size_t r = 0; r < state.regs.size(); ++r)
        model.set_reg((int)r, state.regs[r]);
    auto* ckpt = dynamic_cast<CheckpointableModel*>(&model);
    bool engine = ckpt != nullptr && !state.state_key.empty() &&
                  ckpt->state_key() == state.state_key;
    if (engine) {
        StateReader r(state.engine);
        ckpt->load_extra_state(r);
    }
    if (system.load_env != nullptr) {
        StateReader r(state.env);
        system.load_env(r);
    }
    return engine;
}

int
first_difference(const Model& model, const std::vector<Bits>& regs)
{
    for (size_t r = 0; r < regs.size(); ++r)
        if (model.get_reg((int)r) != regs[r])
            return (int)r;
    return -1;
}

} // namespace koika::sim
