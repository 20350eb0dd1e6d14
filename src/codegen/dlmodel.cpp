#include "codegen/dlmodel.hpp"

#include <dlfcn.h>
#include <sys/stat.h>
#include <unistd.h>

#include <atomic>
#include <cstring>
#include <sstream>
#include <unordered_map>

#include "base/error.hpp"
#include "base/io.hpp"
#include "base/sha256.hpp"
#include "codegen/cpp_emit.hpp"
#include "obs/prof.hpp"

#ifndef CUTTLESIM_SRC_DIR
#error "CUTTLESIM_SRC_DIR must be defined by the build system"
#endif
#ifndef CUTTLESIM_TREE_DIGEST
#error "CUTTLESIM_TREE_DIGEST must be defined by the build system"
#endif

namespace koika::codegen {

std::string
built_tree_digest()
{
    return CUTTLESIM_TREE_DIGEST;
}

/**
 * Digest of every in-tree file the shim includes (transitively). The
 * content-addressed cache hashes the workdir sources and the runtime
 * header, but NOT arbitrary -I trees — embedding this digest in the
 * shim source folds the harness headers into the cache key, so editing
 * GeneratedModel or Bits invalidates cached shared objects exactly like
 * editing the model itself would. src/codegen/CMakeLists.txt hashes the
 * same files, in the same order, into built_tree_digest().
 */
std::string
tree_digest()
{
    static const std::string digest = [] {
        const char* files[] = {
            "/codegen/generated_model.hpp", "/sim/model.hpp",
            "/sim/state.hpp",               "/base/bits.hpp",
            "/base/bits.cpp",               "/base/error.hpp",
            "/base/error.cpp",
        };
        Sha256 h;
        for (const char* f : files)
            h.update(read_file(std::string(CUTTLESIM_SRC_DIR) + f));
        return h.hex_digest();
    }();
    return digest;
}

void
check_tree_digest(const std::string& design, const std::string& built,
                  const std::string& on_disk)
{
    if (built == on_disk)
        return;
    fatal_diag(Diagnostic{.phase = "dlopen",
                          .design = design,
                          .command = "",
                          .detail = CUTTLESIM_SRC_DIR},
               "compiled-model headers changed since this binary was "
               "built (tree digest %s, now %s): rebuild it",
               built.c_str(), on_disk.c_str());
}

namespace {

/** A loaded model library: the create() entry point plus the handle we
 *  keep forever (see the never-dlclose contract in dlmodel.hpp). */
struct LoadedLib
{
    void* handle = nullptr;
    sim::Model* (*create)() = nullptr;
};

/**
 * The shim translation unit compiled into the shared object. It is
 * self-contained by construction: the emitted model header pulls in the
 * cuttlesim runtime, GeneratedModel pulls in the sim interfaces, and
 * the two base .cpp files provide the only out-of-line symbols those
 * headers reference (Bits and error plumbing). Everything resolves
 * inside the object, so dlopen(RTLD_LOCAL) needs nothing from the host
 * beyond libstdc++.
 */
std::string
shim_source(const std::string& cls, const std::string& design_name)
{
    std::ostringstream os;
    os << "// cuttlesim-dlmodel-v1 tree:" << tree_digest() << "\n"
       << "#include \"" << cls << ".model.hpp\"\n"
       << "#include \"codegen/generated_model.hpp\"\n"
       << "#include \"base/bits.cpp\"\n"
       << "#include \"base/error.cpp\"\n"
       << "\n"
       << "extern \"C\" const char*\n"
       << "cuttlesim_model_design()\n"
       << "{\n"
       << "    return \"" << design_name << "\";\n"
       << "}\n"
       << "\n"
       << "extern \"C\" koika::sim::Model*\n"
       << "cuttlesim_model_create()\n"
       << "{\n"
       << "    return new koika::codegen::GeneratedModel<\n"
       << "        cuttlesim::models::" << cls << ">();\n"
       << "}\n";
    return os.str();
}

/**
 * Per-thread scratch directory under `base`: emitted sources are
 * rewritten on every (thread-local) cache miss, so two pool workers
 * loading the same design concurrently must not share a workdir. The
 * thread index is a process-wide counter, not the TID, so paths stay
 * short and stable within a run.
 */
std::string
thread_workdir(const std::string& base)
{
    static std::atomic<uint64_t> next_thread{0};
    thread_local uint64_t id = next_thread.fetch_add(1);
    ::mkdir(base.c_str(), 0755);
    std::string dir = base + "/t" + std::to_string(id);
    ::mkdir(dir.c_str(), 0755);
    return dir;
}

LoadedLib
load_library(const Design& design, const DlModelOptions& options)
{
    // Before compiling: a shared object built from headers this binary
    // was not compiled against disagrees with it on class layouts and
    // vtables, and crashes at the first call instead of diagnosing.
    check_tree_digest(design.name(), built_tree_digest(), tree_digest());
    std::string cls = model_class_name(design);
    std::string base = options.workdir;
    if (base.empty())
        base = "/tmp/cuttlesim_dl_" + std::to_string((long)::getpid());
    std::string workdir = thread_workdir(base);

    CompileOptions copts;
    copts.design = design.name();
    copts.cache = options.cache;
    // Full instrumentation, always: the in-process engine must expose
    // the same counters, abort reasons, and coverage arrays as the T5
    // interpreter, or campaign reports would depend on the engine.
    EmitOptions eopts;
    eopts.counters = true;
    eopts.abort_reasons = true;
    eopts.coverage = true;
    obs::ProfScope emit_span("compile/emit");
    std::string model = emit_model(design, eopts);
    std::string shim = shim_source(cls, design.name());
    emit_span.close();

    // -fPIC -shared turns the "binary" into a shared object (dlopen
    // does not care about the .bin suffix); the src include path
    // resolves generated_model.hpp and the two base .cpp includes. The
    // flags are hashed into the content-addressed cache key, so shared
    // objects and standalone binaries can never collide in the cache.
    std::string flags =
        options.cxxflags + " -fPIC -shared -I " CUTTLESIM_SRC_DIR;
    CompileResult compiled =
        compile_cpp(workdir,
                    {{cls + ".model.hpp", std::move(model)},
                     {cls + ".shim.cpp", std::move(shim)}},
                    cls + ".shim.cpp", flags, copts);

    obs::ProfScope load_span("compile/dlopen");
    // RTLD_LOCAL keeps each model library's symbols private (several
    // designs can be loaded side by side); cross-boundary dynamic_cast
    // still works because libstdc++ compares type_info by name.
    void* handle =
        ::dlopen(compiled.binary.c_str(), RTLD_NOW | RTLD_LOCAL);
    if (handle == nullptr) {
        const char* err = ::dlerror();
        fatal_diag(Diagnostic{.phase = "dlopen",
                              .design = design.name(),
                              .command = "",
                              .detail = err != nullptr ? err : ""},
                   "cannot load compiled model '%s'",
                   compiled.binary.c_str());
    }
    auto* design_fn = reinterpret_cast<const char* (*)()>(
        ::dlsym(handle, "cuttlesim_model_design"));
    auto* create_fn = reinterpret_cast<sim::Model* (*)()>(
        ::dlsym(handle, "cuttlesim_model_create"));
    if (design_fn == nullptr || create_fn == nullptr)
        fatal_diag(Diagnostic{.phase = "dlopen",
                              .design = design.name(),
                              .command = "",
                              .detail = compiled.binary},
                   "compiled model is missing its entry points");
    if (std::strcmp(design_fn(), design.name().c_str()) != 0)
        fatal_diag(Diagnostic{.phase = "dlopen",
                              .design = design.name(),
                              .command = "",
                              .detail = compiled.binary},
                   "compiled model was built for design '%s'",
                   design_fn());
    return LoadedLib{handle, create_fn};
}

} // namespace

std::unique_ptr<sim::Model>
load_compiled_model(const Design& design, const DlModelOptions& options)
{
    // One probe + dlopen per (design, flags, cache) per thread: a pool
    // worker's first model pays the pipeline, every later one is a
    // constructor call. thread_local (not a locked global) so workers
    // never serialize on a map mutex in the trial hot path. Handles are
    // never released — see the header's never-dlclose contract.
    thread_local std::unordered_map<std::string, LoadedLib> libs;
    std::string key = design.name() + "\n" + options.cxxflags + "\n" +
                      options.cache.dir + "\n" + options.workdir;
    auto it = libs.find(key);
    if (it == libs.end())
        it = libs.emplace(key, load_library(design, options)).first;
    return std::unique_ptr<sim::Model>(it->second.create());
}

} // namespace koika::codegen
