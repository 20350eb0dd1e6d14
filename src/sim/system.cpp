#include "sim/system.hpp"

#include <algorithm>
#include <cstring>

namespace koika::sim {

RegisterWords::RegisterWords(Model& model)
    : model_(&model), flat_(dynamic_cast<FlatRegsModel*>(&model))
{
    uint32_t total = 0;
    for (size_t r = 0; r < model.num_regs(); ++r) {
        widths_.push_back(model.get_reg((int)r).width());
        offsets_.push_back(total);
        uint32_t n = (widths_.back() + 63) / 64;
        owner_.insert(owner_.end(), n, (int)r);
        total += n;
    }
    offsets_.push_back(total);
    KOIKA_CHECK(flat_ == nullptr || flat_->num_reg_words() == total);
    scratch_.resize(total);
}

void
RegisterWords::read(uint64_t* out) const
{
    if (flat_ != nullptr) {
        flat_->pack_regs(out);
        return;
    }
    for (size_t r = 0; r < widths_.size(); ++r) {
        Bits v = model_->get_reg((int)r);
        std::copy(v.words(), v.words() + v.nwords(), out + offsets_[r]);
    }
}

void
RegisterWords::write(const uint64_t* in) const
{
    if (flat_ != nullptr) {
        flat_->unpack_regs(in);
        return;
    }
    for (size_t r = 0; r < widths_.size(); ++r)
        model_->set_reg((int)r,
                        Bits::of_words(widths_[r], in + offsets_[r],
                                       offsets_[r + 1] - offsets_[r]));
}

int
RegisterWords::first_difference(const uint64_t* words) const
{
    if (scratch_.empty())
        return -1;
    read(scratch_.data());
    if (std::memcmp(scratch_.data(), words,
                    scratch_.size() * sizeof(uint64_t)) == 0)
        return -1;
    size_t w = 0;
    while (scratch_[w] == words[w])
        ++w;
    return owner_[w];
}

const RegisterWords&
System::words() const
{
    if (words_ == nullptr || words_->model() != model.get())
        words_ = std::make_unique<RegisterWords>(*model);
    return *words_;
}

bool
restorable(const System& system)
{
    bool env_ok = (system.save_env != nullptr) == (system.load_env != nullptr);
    return dynamic_cast<const CheckpointableModel*>(system.model.get()) &&
           env_ok && (system.save_env != nullptr || system.context == nullptr);
}

void
read_words(const System& system, std::vector<uint64_t>& words)
{
    const RegisterWords& regs = system.words();
    words.resize(regs.size());
    regs.read(words.data());
}

void
capture(const System& system, SystemState& state)
{
    read_words(system, state.words);
    const auto* ckpt =
        dynamic_cast<const CheckpointableModel*>(system.model.get());
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
    const RegisterWords& regs = system.words();
    KOIKA_CHECK(state.words.size() == regs.size());
    regs.write(state.words.data());
    auto* ckpt = dynamic_cast<CheckpointableModel*>(system.model.get());
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
first_difference(const System& system, const std::vector<uint64_t>& words)
{
    const RegisterWords& regs = system.words();
    KOIKA_CHECK(words.size() == regs.size());
    return regs.first_difference(words.data());
}

} // namespace koika::sim
