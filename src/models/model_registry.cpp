// Model-family registry implementation (interface: nn/model_family.hpp).
// Registration is a static list, mirroring the partitioner registry: adding
// a family means adding its row here.
#include "nn/model_family.hpp"

#include <sstream>

namespace fare {

const std::vector<const ModelFamily*>& registered_model_families() {
    static const std::vector<const ModelFamily*> families = {&kGnnFamily,
                                                             &kTransformerFamily};
    return families;
}

Expected<const ModelFamily*> try_find_model_family(const std::string& name) {
    for (const ModelFamily* fam : registered_model_families())
        if (fam->name == name) return fam;
    std::ostringstream os;
    os << "unknown model family: '" << name << "' — registered families:";
    for (const ModelFamily* fam : registered_model_families())
        os << ' ' << fam->name;
    return Expected<const ModelFamily*>::failure(os.str());
}

const ModelFamily& find_model_family(const std::string& name) {
    auto result = try_find_model_family(name);
    if (!result) throw InvalidArgument(result.error());
    return *result.value();
}

}  // namespace fare
