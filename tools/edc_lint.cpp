// edc-lint: static-analysis driver for CoordScript extension sources.
//
// Runs admission (structure, scoping, interval/length cost bounding,
// determinism taint) and the lint-only passes (dataflow, cost and precision
// warnings) over each input file and prints every diagnostic, gcc-style:
// "file:line:col: severity: message [EDC-Xnnn]". With several input files it
// also runs the whole-registry lint (EDC-W010..W012) over the set, treating
// the files as extensions registered in command-line order.
//
// Usage: edc-lint [options] file.edc...
//   --deterministic  check under active-replication rules (EDS): taint from
//                    nondeterministic calls must not reach state or replies
//   --max-steps N    certification budget (default 100000)
//   --werror         treat warnings as errors for the exit code
//   --format=json    machine-readable output: one JSON document with stable
//                    diagnostic codes, file/line/col positions and the
//                    analyzer's inferred per-handler step bounds
//   --dump-bounds    print one "file: handler ...: bound=..." line per
//                    handler with the inferred worst-case step bound
//
// Exit status: 0 clean, 1 diagnostics at error level (or any finding with
// --werror), 2 usage/IO failure.

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "tools/lint/lint.h"

namespace {

int Usage() {
  std::cerr << "usage: edc-lint [--deterministic] [--max-steps N] [--werror] "
               "[--format=json] [--dump-bounds] file.edc...\n";
  return 2;
}

std::string JsonEscape(const std::string& s) {
  std::string out;
  out.reserve(s.size() + 8);
  for (char c : s) {
    switch (c) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      case '\n':
        out += "\\n";
        break;
      case '\t':
        out += "\\t";
        break;
      case '\r':
        out += "\\r";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

std::string JsonDiagnostic(const std::string& file, const edc::Diagnostic& d) {
  std::string out = "{\"code\":\"" + JsonEscape(d.code) + "\",\"severity\":\"" +
                    edc::SeverityName(d.severity) + "\",\"file\":\"" +
                    JsonEscape(file) + "\",\"line\":" + std::to_string(d.line) +
                    ",\"col\":" + std::to_string(d.col) + ",\"handler\":\"" +
                    JsonEscape(d.handler) + "\",\"message\":\"" +
                    JsonEscape(d.message) + "\"}";
  return out;
}

std::string JsonHandler(const std::string& name, const edc::HandlerReport& hr) {
  std::string out = "{\"name\":\"" + JsonEscape(name) + "\",\"bounded\":";
  out += hr.cost_bounded ? "true" : "false";
  out += ",\"step_bound\":";
  out += hr.cost_bounded ? std::to_string(hr.step_bound) : "null";
  out += ",\"certified\":";
  out += hr.certified ? "true" : "false";
  out += ",\"deterministic\":";
  out += hr.deterministic ? "true" : "false";
  out += "}";
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  edc::VerifierConfig config = edc::LintVerifierConfig();
  bool werror = false;
  bool json = false;
  bool dump_bounds = false;
  std::vector<std::string> files;

  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg == "--deterministic") {
      config.require_deterministic = true;
    } else if (arg == "--werror") {
      werror = true;
    } else if (arg == "--format=json") {
      json = true;
    } else if (arg == "--dump-bounds") {
      dump_bounds = true;
    } else if (arg == "--max-steps") {
      if (i + 1 >= argc) {
        return Usage();
      }
      config.budget.max_steps = std::atoll(argv[++i]);
      if (config.budget.max_steps <= 0) {
        return Usage();
      }
    } else if (!arg.empty() && arg[0] == '-') {
      return Usage();
    } else {
      files.push_back(std::move(arg));
    }
  }
  if (files.empty()) {
    return Usage();
  }

  std::vector<edc::LintInput> sources;
  for (const std::string& file : files) {
    std::ifstream in(file);
    if (!in) {
      std::cerr << "edc-lint: cannot read " << file << "\n";
      return 2;
    }
    std::ostringstream buf;
    buf << in.rdbuf();
    sources.push_back(edc::LintInput{file, buf.str()});
  }
  edc::LintSetResult lint = edc::LintSources(sources, config);

  bool any_error = false;
  bool any_warning = !lint.registry.empty();
  for (const edc::LintResult& fl : lint.files) {
    any_error = any_error || fl.has_errors;
    for (const edc::Diagnostic& d : fl.diagnostics) {
      any_warning = any_warning || d.severity == edc::Severity::kWarning;
    }
  }

  if (json) {
    std::string out = "{\"files\":[";
    for (size_t i = 0; i < lint.files.size(); ++i) {
      const edc::LintResult& fl = lint.files[i];
      if (i > 0) {
        out += ",";
      }
      out += "{\"file\":\"" + JsonEscape(fl.unit) + "\",\"diagnostics\":[";
      for (size_t j = 0; j < fl.diagnostics.size(); ++j) {
        if (j > 0) {
          out += ",";
        }
        out += JsonDiagnostic(fl.unit, fl.diagnostics[j]);
      }
      out += "],\"handlers\":[";
      size_t j = 0;
      for (const auto& [name, hr] : fl.handlers) {
        if (j++ > 0) {
          out += ",";
        }
        out += JsonHandler(name, hr);
      }
      out += "]}";
    }
    out += "],\"registry\":[";
    for (size_t j = 0; j < lint.registry.size(); ++j) {
      if (j > 0) {
        out += ",";
      }
      // Registry diagnostics carry the extension (= file) in `handler`.
      out += JsonDiagnostic(lint.registry[j].handler, lint.registry[j]);
    }
    out += "]}";
    std::cout << out << "\n";
  } else {
    std::cout << lint.Format(dump_bounds);
  }

  return (any_error || (werror && any_warning)) ? 1 : 0;
}
