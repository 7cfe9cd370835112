#include "nn/parser.hpp"

#include <fstream>
#include <sstream>
#include <vector>

#include "common/logging.hpp"

namespace nnbaton {

namespace {

/** Split a line into whitespace-separated tokens. */
std::vector<std::string>
tokenize(const std::string &line)
{
    std::vector<std::string> tokens;
    std::istringstream ss(line);
    std::string tok;
    while (ss >> tok)
        tokens.push_back(tok);
    return tokens;
}

/** Parse a strictly positive integer; returns false on failure. */
bool
parsePositive(const std::string &tok, int &out)
{
    try {
        size_t pos = 0;
        const long v = std::stol(tok, &pos);
        if (pos != tok.size() || v <= 0 || v > (1 << 30))
            return false;
        out = static_cast<int>(v);
        return true;
    } catch (...) {
        return false;
    }
}

std::string
lineError(int line, const std::string &message)
{
    return "line " + std::to_string(line) + ": " + message;
}

} // namespace

ParseResult
parseModel(std::istream &in)
{
    ParseResult result;
    std::optional<Model> model;
    std::string line;
    int line_no = 0;
    int batch = 1; // current batch; applies to subsequent layers
    const auto addBatched = [&](ConvLayer layer) {
        layer.batch = batch;
        model->addLayer(std::move(layer));
    };

    while (std::getline(in, line)) {
        ++line_no;
        // Strip comments.
        const size_t hash = line.find('#');
        if (hash != std::string::npos)
            line.resize(hash);
        const auto tokens = tokenize(line);
        if (tokens.empty())
            continue;

        const std::string &kind = tokens[0];
        if (kind == "model") {
            if (model) {
                result.error =
                    lineError(line_no, "duplicate 'model' line");
                return result;
            }
            int resolution = 0;
            if (tokens.size() != 3 ||
                !parsePositive(tokens[2], resolution)) {
                result.error = lineError(
                    line_no, "expected: model <name> <resolution>");
                return result;
            }
            model.emplace(tokens[1], resolution);
            continue;
        }

        if (!model) {
            result.error = lineError(
                line_no, "the 'model' line must come first");
            return result;
        }

        if (kind == "batch") {
            if (tokens.size() != 2 || !parsePositive(tokens[1], batch)) {
                result.error = lineError(line_no, "expected: batch <n>");
                return result;
            }
            continue;
        }

        if (kind == "conv") {
            int v[7];
            if (tokens.size() != 9) {
                result.error = lineError(
                    line_no, "expected: conv <name> <ho> <wo> <co> "
                             "<ci> <kh> <kw> <stride>");
                return result;
            }
            for (int i = 0; i < 7; ++i) {
                if (!parsePositive(tokens[2 + i], v[i])) {
                    result.error = lineError(
                        line_no, "bad integer '" + tokens[2 + i] + "'");
                    return result;
                }
            }
            addBatched(makeConv(tokens[1], v[0], v[1], v[2], v[3], v[4],
                                v[5], v[6]));
        } else if (kind == "dwconv") {
            // Two arities: <kh> <kw> (canonical) and the legacy
            // square-kernel <k> form, kept for old model files.
            int v[6];
            const size_t n = tokens.size() - 2;
            if (n != 5 && n != 6) {
                result.error = lineError(
                    line_no, "expected: dwconv <name> <ho> <wo> "
                             "<channels> <kh> <kw> <stride> (or the "
                             "legacy square-kernel form with one <k>)");
                return result;
            }
            for (size_t i = 0; i < n; ++i) {
                if (!parsePositive(tokens[2 + i], v[i])) {
                    result.error = lineError(
                        line_no, "bad integer '" + tokens[2 + i] + "'");
                    return result;
                }
            }
            if (n == 6) {
                addBatched(makeDepthwiseConv(tokens[1], v[0], v[1], v[2],
                                             v[3], v[4], v[5]));
            } else {
                addBatched(makeDepthwiseConv(tokens[1], v[0], v[1], v[2],
                                             v[3], v[4]));
            }
        } else if (kind == "fc") {
            int v[2];
            if (tokens.size() != 4 || !parsePositive(tokens[2], v[0]) ||
                !parsePositive(tokens[3], v[1])) {
                result.error = lineError(
                    line_no,
                    "expected: fc <name> <out-features> <in-features>");
                return result;
            }
            addBatched(makeFullyConnected(tokens[1], v[0], v[1]));
        } else if (kind == "gemm") {
            int v[4] = {0, 0, 0, 0};
            const size_t n = tokens.size() - 2;
            if (n != 3 && n != 4) {
                result.error = lineError(
                    line_no,
                    "expected: gemm <name> <M> <N> <K> [postops]");
                return result;
            }
            for (size_t i = 0; i < n; ++i) {
                if (!parsePositive(tokens[2 + i], v[i])) {
                    result.error = lineError(
                        line_no, "bad integer '" + tokens[2 + i] + "'");
                    return result;
                }
            }
            model->addLayer(
                makeGemm(tokens[1], v[0], v[1], v[2], batch, v[3]));
        } else if (kind == "attention") {
            int v[3];
            if (tokens.size() != 5) {
                result.error = lineError(
                    line_no,
                    "expected: attention <name> <seq> <dmodel> <heads>");
                return result;
            }
            for (int i = 0; i < 3; ++i) {
                if (!parsePositive(tokens[2 + i], v[i])) {
                    result.error = lineError(
                        line_no, "bad integer '" + tokens[2 + i] + "'");
                    return result;
                }
            }
            if (v[1] % v[2] != 0) {
                result.error = lineError(
                    line_no, "dmodel must be divisible by heads");
                return result;
            }
            appendAttentionBlock(*model, tokens[1], v[0], v[1], v[2],
                                 batch);
        } else {
            result.error = lineError(
                line_no, "unknown layer kind '" + kind + "'");
            return result;
        }
    }

    if (!model) {
        result.error = "empty model description";
        return result;
    }
    if (model->layers().empty()) {
        result.error = "model has no layers";
        return result;
    }
    result.model = std::move(model);
    return result;
}

ParseResult
parseModelString(const std::string &text)
{
    std::istringstream ss(text);
    return parseModel(ss);
}

ParseResult
parseModelFile(const std::string &path)
{
    std::ifstream in(path);
    if (!in) {
        ParseResult result;
        result.error = "cannot open '" + path + "'";
        return result;
    }
    ParseResult result = parseModel(in);
    if (!result.ok())
        result.error = path + ": " + result.error;
    return result;
}

StatusOr<Model>
loadModelFile(const std::string &path)
{
    std::ifstream in(path);
    if (!in)
        return errNotFound("cannot open model file '%s'", path.c_str());
    ParseResult result = parseModel(in);
    if (!result.ok()) {
        return errInvalidArgument("%s: %s", path.c_str(),
                                  result.error.c_str());
    }
    return std::move(*result.model);
}

std::string
writeModelText(const Model &model)
{
    std::ostringstream ss;
    ss << "model " << model.name() << " " << model.inputResolution()
       << "\n";
    int batch = 1;
    for (const ConvLayer &l : model.layers()) {
        if (l.batch != batch) {
            batch = l.batch;
            ss << "batch " << batch << "\n";
        }
        if (l.op == LayerOp::Gemm) {
            ss << "gemm " << l.name << " " << l.gemmM << " " << l.gemmN
               << " " << l.gemmK;
            if (l.postOps > 0)
                ss << " " << l.postOps;
            ss << "\n";
        } else if (l.isDepthwise()) {
            // Both kernel dims: non-square depthwise kernels must
            // round-trip (the legacy one-dim form dropped kw).
            ss << "dwconv " << l.name << " " << l.ho << " " << l.wo
               << " " << l.co << " " << l.kh << " " << l.kw << " "
               << l.stride << "\n";
        } else if (l.ho == 1 && l.wo == 1 && l.isPointWise()) {
            ss << "fc " << l.name << " " << l.co << " " << l.ci << "\n";
        } else {
            ss << "conv " << l.name << " " << l.ho << " " << l.wo << " "
               << l.co << " " << l.ci << " " << l.kh << " " << l.kw
               << " " << l.stride << "\n";
        }
    }
    return ss.str();
}

} // namespace nnbaton
