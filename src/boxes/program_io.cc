#include "boxes/program_io.h"

#include <cstdlib>

#include "boxes/box_registry.h"
#include "common/str_util.h"
#include "dataflow/encapsulate.h"

namespace tioga2::boxes {

using dataflow::Box;
using dataflow::BoxPtr;
using dataflow::EncapsulatedBox;
using dataflow::Graph;

namespace {

constexpr const char* kHeader = "tioga2-program v1";

void SerializeGraphBody(const Graph& graph, int indent, std::string* out);

std::string Indent(int levels) { return std::string(static_cast<size_t>(levels) * 2, ' '); }

void SerializeBoxLine(const std::string& id, const Box& box, int indent,
                      std::string* out) {
  if (const auto* encap = dynamic_cast<const EncapsulatedBox*>(&box)) {
    std::vector<std::string> bindings;
    for (const auto& [inner_id, port] : encap->output_bindings()) {
      bindings.push_back(inner_id + ":" + std::to_string(port));
    }
    *out += Indent(indent) + "encap " + id + " name=" + QuoteString(encap->name()) +
            " outputs=" + QuoteString(StrJoin(bindings, ",")) + " {\n";
    SerializeGraphBody(encap->inner(), indent + 1, out);
    *out += Indent(indent) + "}\n";
    return;
  }
  *out += Indent(indent) + "box " + id + " " + box.type_name();
  for (const auto& [key, value] : box.Params()) {
    *out += " " + key + "=" + QuoteString(value);
  }
  *out += "\n";
}

void SerializeGraphBody(const Graph& graph, int indent, std::string* out) {
  for (const std::string& id : graph.BoxIds()) {
    SerializeBoxLine(id, **graph.GetBox(id), indent, out);
    std::optional<std::pair<double, double>> position = graph.BoxPosition(id);
    if (position.has_value()) {
      *out += Indent(indent) + "pos " + id + " " + FormatDouble(position->first) +
              " " + FormatDouble(position->second) + "\n";
    }
  }
  for (const dataflow::Edge& edge : graph.edges()) {
    *out += Indent(indent) + "edge " + edge.from_box + ":" +
            std::to_string(edge.from_port) + " " + edge.to_box + ":" +
            std::to_string(edge.to_port) + "\n";
  }
}

/// Splits a serialized line into words, where a word is either bare text or
/// key="quoted value" (quotes may contain escaped characters).
Result<std::vector<std::string>> SplitLine(const std::string& line) {
  std::vector<std::string> words;
  size_t i = 0;
  while (i < line.size()) {
    if (line[i] == ' ') {
      ++i;
      continue;
    }
    size_t start = i;
    bool in_quotes = false;
    while (i < line.size() && (in_quotes || line[i] != ' ')) {
      if (line[i] == '"') in_quotes = !in_quotes;
      if (in_quotes && line[i] == '\\') ++i;  // skip escaped char
      ++i;
    }
    if (in_quotes) return Status::ParseError("unterminated quote in line: " + line);
    words.push_back(line.substr(start, i - start));
  }
  return words;
}

Result<std::map<std::string, std::string>> ParseParams(
    const std::vector<std::string>& words, size_t first) {
  std::map<std::string, std::string> params;
  for (size_t i = first; i < words.size(); ++i) {
    size_t eq = words[i].find('=');
    if (eq == std::string::npos) {
      return Status::ParseError("expected key=\"value\", got '" + words[i] + "'");
    }
    std::string value;
    if (!UnquoteString(words[i].substr(eq + 1), &value)) {
      return Status::ParseError("malformed quoted value in '" + words[i] + "'");
    }
    params[words[i].substr(0, eq)] = value;
  }
  return params;
}

Result<std::pair<std::string, size_t>> ParseEndpoint(const std::string& text) {
  size_t colon = text.rfind(':');
  if (colon == std::string::npos) {
    return Status::ParseError("expected box:port, got '" + text + "'");
  }
  uint64_t port = 0;
  if (!ParseUint64(std::string_view(text).substr(colon + 1), &port)) {
    return Status::ParseError("bad port number in '" + text + "'");
  }
  return std::make_pair(text.substr(0, colon), static_cast<size_t>(port));
}

/// Parses lines[*index..] as a graph body, stopping at a lone "}" (consumed)
/// or at end of input.
Result<Graph> ParseGraphBody(const std::vector<std::string>& lines, size_t* index,
                             bool expect_close) {
  Graph graph;
  struct PendingEdge {
    std::string from;
    size_t from_port;
    std::string to;
    size_t to_port;
  };
  std::vector<PendingEdge> pending;
  while (*index < lines.size()) {
    std::string line(StripWhitespace(lines[*index]));
    ++*index;
    if (line.empty() || line[0] == '#') continue;
    if (line == "}") {
      if (!expect_close) return Status::ParseError("unexpected '}'");
      expect_close = false;
      break;
    }
    TIOGA2_ASSIGN_OR_RETURN(std::vector<std::string> words, SplitLine(line));
    if (words.empty()) continue;
    if (words[0] == "box") {
      if (words.size() < 3) return Status::ParseError("malformed box line: " + line);
      TIOGA2_ASSIGN_OR_RETURN(auto params, ParseParams(words, 3));
      TIOGA2_ASSIGN_OR_RETURN(BoxPtr box, MakeBox(words[2], params));
      TIOGA2_RETURN_IF_ERROR(graph.AddBox(std::move(box), words[1]).status());
    } else if (words[0] == "encap") {
      if (words.size() < 3 || words.back() != "{") {
        return Status::ParseError("malformed encap line: " + line);
      }
      TIOGA2_ASSIGN_OR_RETURN(auto params,
                              ParseParams({words.begin(), words.end() - 1}, 2));
      TIOGA2_ASSIGN_OR_RETURN(Graph inner, ParseGraphBody(lines, index, true));
      std::vector<std::pair<std::string, size_t>> outputs;
      auto outputs_it = params.find("outputs");
      if (outputs_it != params.end()) {
        for (const std::string& binding : StrSplit(outputs_it->second, ',')) {
          if (binding.empty()) continue;
          TIOGA2_ASSIGN_OR_RETURN(auto endpoint, ParseEndpoint(binding));
          outputs.push_back(endpoint);
        }
      }
      std::string name = params.count("name") > 0 ? params.at("name") : words[1];
      auto encap = std::make_unique<EncapsulatedBox>(name, std::move(inner),
                                                     std::move(outputs));
      TIOGA2_RETURN_IF_ERROR(graph.AddBox(std::move(encap), words[1]).status());
    } else if (words[0] == "pos") {
      if (words.size() != 4) return Status::ParseError("malformed pos line: " + line);
      char* end = nullptr;
      double x = std::strtod(words[2].c_str(), &end);
      if (*end != '\0') return Status::ParseError("bad x in pos line: " + line);
      double y = std::strtod(words[3].c_str(), &end);
      if (*end != '\0') return Status::ParseError("bad y in pos line: " + line);
      TIOGA2_RETURN_IF_ERROR(graph.SetBoxPosition(words[1], x, y));
    } else if (words[0] == "edge") {
      if (words.size() != 3) return Status::ParseError("malformed edge line: " + line);
      TIOGA2_ASSIGN_OR_RETURN(auto from, ParseEndpoint(words[1]));
      TIOGA2_ASSIGN_OR_RETURN(auto to, ParseEndpoint(words[2]));
      pending.push_back(PendingEdge{from.first, from.second, to.first, to.second});
    } else {
      return Status::ParseError("unknown program directive '" + words[0] + "'");
    }
  }
  if (expect_close) return Status::ParseError("missing '}' in program");
  for (const PendingEdge& edge : pending) {
    TIOGA2_RETURN_IF_ERROR(graph.Connect(edge.from, edge.from_port, edge.to,
                                         edge.to_port));
  }
  return graph;
}

}  // namespace

Result<std::string> SerializeProgram(const Graph& graph) {
  std::string out = std::string(kHeader) + "\n";
  SerializeGraphBody(graph, 0, &out);
  return out;
}

Result<Graph> DeserializeProgram(const std::string& text) {
  std::vector<std::string> lines = StrSplit(text, '\n');
  size_t index = 0;
  // Skip blank lines before the header.
  while (index < lines.size() && StripWhitespace(lines[index]).empty()) ++index;
  if (index >= lines.size() || StripWhitespace(lines[index]) != kHeader) {
    return Status::ParseError("missing program header '" + std::string(kHeader) + "'");
  }
  ++index;
  return ParseGraphBody(lines, &index, /*expect_close=*/false);
}

}  // namespace tioga2::boxes
