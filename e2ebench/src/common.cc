#include "common.h"

#include <sys/stat.h>

#include <algorithm>
#include <cmath>
#include <cstdarg>
#include <cstdio>
#include <filesystem>

#include "holoclean/constraints/parser.h"
#include "holoclean/data/flights.h"
#include "holoclean/data/food.h"
#include "holoclean/data/hospital.h"
#include "holoclean/data/physicians.h"
#include "holoclean/extdata/md_parser.h"
#include "holoclean/util/memory.h"

namespace e2ebench {

using holoclean::CsvDocument;
using holoclean::GeneratedData;

double Median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  size_t n = values.size();
  return n % 2 == 1 ? values[n / 2] : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

double Percentile(std::vector<double> values, double p) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  double rank = std::ceil(p / 100.0 * static_cast<double>(values.size()));
  size_t index = rank < 1.0 ? 0 : static_cast<size_t>(rank) - 1;
  return values[std::min(index, values.size() - 1)];
}

uint64_t Mix(uint64_t seed, uint64_t salt) {
  uint64_t z = seed + 0x9E3779B97F4A7C15ULL * (salt + 1);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

namespace {

GeneratedData Generate(const std::string& name, size_t rows, uint64_t seed) {
  if (name == "hospital") return holoclean::MakeHospital({rows, 0.05, seed});
  if (name == "food") return holoclean::MakeFood({rows, 0.06, seed});
  if (name == "flights") {
    holoclean::FlightsOptions options;
    options.num_rows = rows;
    options.seed = seed;
    return holoclean::MakeFlights(options);
  }
  holoclean::PhysiciansOptions options;
  options.num_rows = rows;
  options.seed = seed;
  return holoclean::MakePhysicians(options);
}

/// The paper's per-dataset pruning thresholds (Table 3).
double PaperTau(const std::string& name) {
  if (name == "hospital") return 0.5;
  if (name == "flights") return 0.3;
  if (name == "food") return 0.5;
  return 0.7;
}

std::string MdText(const std::vector<holoclean::MatchingDependency>& mds) {
  std::string out;
  for (const holoclean::MatchingDependency& md : mds) {
    out += md.name + ": dict=0 ";
    for (size_t i = 0; i < md.conditions.size(); ++i) {
      if (i > 0) out += " & ";
      out += md.conditions[i].data_attr +
             (md.conditions[i].approximate ? "~" : "=") +
             md.conditions[i].ext_attr;
    }
    out += " -> " + md.target_data_attr + "=" + md.target_ext_attr + "\n";
  }
  return out;
}

}  // namespace

DatasetText GenerateDataset(const std::string& name, size_t rows,
                            size_t tail_rows, uint64_t seed) {
  GeneratedData data = Generate(name, rows + tail_rows, seed);
  DatasetText text;
  text.name = name;
  text.tau = PaperTau(name);
  const holoclean::Table& dirty = data.dataset.dirty();
  if (data.dataset.has_source_attr()) {
    text.source_attr = dirty.schema().name(data.dataset.source_attr());
  }
  CsvDocument full = dirty.ToCsv();
  CsvDocument clean = data.dataset.clean().ToCsv();
  CsvDocument base_dirty{full.header, {}};
  CsvDocument base_clean{clean.header, {}};
  for (size_t i = 0; i < full.rows.size(); ++i) {
    if (i < rows) {
      base_dirty.rows.push_back(std::move(full.rows[i]));
      base_clean.rows.push_back(std::move(clean.rows[i]));
    } else {
      text.tail_dirty.push_back(std::move(full.rows[i]));
      text.tail_clean.push_back(std::move(clean.rows[i]));
    }
  }
  text.dirty_csv = holoclean::WriteCsv(base_dirty);
  text.clean_csv = holoclean::WriteCsv(base_clean);
  for (const holoclean::DenialConstraint& dc : data.dcs) {
    text.dc_text += dc.ToString(dirty.schema()) + "\n";
  }
  if (!data.dicts.empty()) {
    text.dict_csv = holoclean::WriteCsv(data.dicts.Get(0).records().ToCsv());
    text.md_text = MdText(data.mds);
  }
  return text;
}

holoclean::Result<ParsedInputs> ParseInputs(const DatasetText& text,
                                            const std::string* csv_text) {
  using holoclean::Table;
  ParsedInputs out;
  HOLO_ASSIGN_OR_RETURN(
      doc, holoclean::ParseCsv(csv_text != nullptr ? *csv_text
                                                   : text.dirty_csv));
  HOLO_ASSIGN_OR_RETURN(table, Table::FromCsv(doc));
  out.dataset = std::make_shared<holoclean::Dataset>(std::move(table));
  if (!text.source_attr.empty()) {
    holoclean::AttrId a =
        out.dataset->dirty().schema().IndexOf(text.source_attr);
    if (a < 0) return holoclean::Status::InvalidArgument("no source attr");
    out.dataset->set_source_attr(a);
  }
  HOLO_ASSIGN_OR_RETURN(dcs, holoclean::ParseDenialConstraints(
                                 text.dc_text, out.dataset->dirty().schema()));
  out.dcs = std::make_shared<const std::vector<holoclean::DenialConstraint>>(
      std::move(dcs));
  if (!text.dict_csv.empty()) {
    HOLO_ASSIGN_OR_RETURN(dict_doc, holoclean::ParseCsv(text.dict_csv));
    HOLO_ASSIGN_OR_RETURN(dict_table, Table::FromCsv(dict_doc));
    auto dicts = std::make_shared<holoclean::ExtDictCollection>();
    dicts->Add("dictionary", std::move(dict_table));
    out.dicts = std::move(dicts);
    HOLO_ASSIGN_OR_RETURN(mds,
                          holoclean::ParseMatchingDependencies(text.md_text));
    out.mds =
        std::make_shared<const std::vector<holoclean::MatchingDependency>>(
            std::move(mds));
  }
  return out;
}

holoclean::HoloCleanConfig DatasetConfig(const DatasetText& text,
                                         holoclean::DcMode mode,
                                         bool partitioning, uint64_t seed) {
  holoclean::HoloCleanConfig config;
  config.tau = text.tau;
  config.dc_mode = mode;
  config.partitioning = partitioning;
  config.seed = Mix(seed, 42);
  config.num_threads = kThreads;
  return config;
}

std::string RepairedCsv(const holoclean::Table& dirty,
                        const std::vector<holoclean::Repair>& repairs) {
  holoclean::Table repaired = dirty.Clone();
  for (const holoclean::Repair& r : repairs) {
    repaired.Set(r.cell, r.new_value);
  }
  return holoclean::WriteCsv(repaired.ToCsv());
}

std::string Num(double v) {
  if (!std::isfinite(v)) return "0";
  char buffer[64];
  std::snprintf(buffer, sizeof(buffer), "%.17g", v);
  return buffer;
}

bool WriteTextFile(const std::string& path, const std::string& text) {
  std::filesystem::path parent = std::filesystem::path(path).parent_path();
  std::error_code ignored;
  if (!parent.empty()) std::filesystem::create_directories(parent, ignored);
  FILE* f = std::fopen(path.c_str(), "wb");
  if (f == nullptr) return false;
  size_t written = std::fwrite(text.data(), 1, text.size(), f);
  bool ok = std::fclose(f) == 0 && written == text.size();
  return ok;
}

uint64_t FileBytes(const std::string& path) {
  struct stat st;
  if (::stat(path.c_str(), &st) != 0) return 0;
  return static_cast<uint64_t>(st.st_size);
}

double PeakRssMib() {
  return static_cast<double>(holoclean::PeakRssBytes()) / (1024.0 * 1024.0);
}

void Log(const char* fmt, ...) {
  va_list args;
  va_start(args, fmt);
  std::vfprintf(stderr, fmt, args);
  va_end(args);
  std::fputc('\n', stderr);
}

}  // namespace e2ebench
