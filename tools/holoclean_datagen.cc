// holoclean_datagen — exports the generated paper benchmarks as CSV files
// for use with the `holoclean` CLI (or any other tool):
//
//   holoclean_datagen --dataset hospital --rows 1000 --out /tmp/hospital
//
// writes <out>_dirty.csv, <out>_clean.csv, <out>_constraints.txt and, when
// the benchmark ships a dictionary, <out>_dict.csv + <out>_mds.txt.

#include <cstdio>
#include <string>

#include "holoclean/data/flights.h"
#include "holoclean/data/food.h"
#include "holoclean/data/hospital.h"
#include "holoclean/data/physicians.h"
#include "holoclean/util/csv.h"
#include "holoclean/util/string_util.h"

namespace holoclean {
namespace {

Status WriteText(const std::string& path, const std::string& text) {
  FILE* f = std::fopen(path.c_str(), "wb");
  if (f == nullptr) return Status::Internal("cannot open " + path);
  std::fwrite(text.data(), 1, text.size(), f);
  std::fclose(f);
  return Status::OK();
}

Status Run(const std::string& name, size_t rows, uint64_t seed,
           const std::string& out) {
  GeneratedData data = [&]() -> GeneratedData {
    if (name == "hospital") return MakeHospital({rows, 0.05, seed});
    if (name == "flights") {
      FlightsOptions options;
      options.num_rows = rows;
      options.seed = seed;
      return MakeFlights(options);
    }
    if (name == "food") return MakeFood({rows, 0.06, seed});
    PhysiciansOptions options;
    options.num_rows = rows;
    options.seed = seed;
    return MakePhysicians(options);
  }();

  HOLO_RETURN_NOT_OK(
      WriteCsvFile(out + "_dirty.csv", data.dataset.dirty().ToCsv()));
  HOLO_RETURN_NOT_OK(
      WriteCsvFile(out + "_clean.csv", data.dataset.clean().ToCsv()));

  std::string constraints;
  for (const DenialConstraint& dc : data.dcs) {
    constraints += dc.ToString(data.dataset.dirty().schema()) + "\n";
  }
  HOLO_RETURN_NOT_OK(WriteText(out + "_constraints.txt", constraints));

  if (!data.dicts.empty()) {
    HOLO_RETURN_NOT_OK(
        WriteCsvFile(out + "_dict.csv", data.dicts.Get(0).records().ToCsv()));
    std::string mds;
    for (const MatchingDependency& md : data.mds) {
      mds += md.name + ": dict=0 ";
      for (size_t i = 0; i < md.conditions.size(); ++i) {
        if (i > 0) mds += " & ";
        mds += md.conditions[i].data_attr +
               (md.conditions[i].approximate ? "~" : "=") +
               md.conditions[i].ext_attr;
      }
      mds += " -> " + md.target_data_attr + "=" + md.target_ext_attr + "\n";
    }
    HOLO_RETURN_NOT_OK(WriteText(out + "_mds.txt", mds));
  }
  std::printf("%s: wrote %zu rows (%zu true errors) under %s_*\n",
              name.c_str(), data.dataset.dirty().num_rows(),
              data.dataset.TrueErrors().size(), out.c_str());
  return Status::OK();
}

}  // namespace
}  // namespace holoclean

namespace {

int Usage() {
  std::fprintf(stderr,
               "usage: holoclean_datagen [--dataset hospital|flights|food|"
               "physicians]\n"
               "                         [--rows N] [--seed N] [--out PREFIX]\n"
               "writes PREFIX_dirty.csv, PREFIX_clean.csv,\n"
               "PREFIX_constraints.txt and, with a dictionary,\n"
               "PREFIX_dict.csv and PREFIX_mds.txt (PREFIX defaults to the\n"
               "dataset name)\n");
  return 2;
}

int BadValue(const holoclean::Status& status) {
  std::fprintf(stderr, "%s\n", status.message().c_str());
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  std::string dataset = "hospital";
  std::string out;
  size_t rows = 1000;
  uint64_t seed = 1;
  for (int i = 1; i < argc; i += 2) {
    std::string arg = argv[i];
    if (arg == "--help" || arg == "-h" || i + 1 == argc) {
      // Help, or a flag missing its value: nothing is written.
      return Usage();
    }
    std::string value = argv[i + 1];
    if (arg == "--dataset") {
      dataset = value;
    } else if (arg == "--rows") {
      auto parsed = holoclean::ParseNumber<size_t>(arg, value, 1);
      if (!parsed.ok()) return BadValue(parsed.status());
      rows = parsed.value();
    } else if (arg == "--seed") {
      auto parsed = holoclean::ParseNumber<uint64_t>(arg, value);
      if (!parsed.ok()) return BadValue(parsed.status());
      seed = parsed.value();
    } else if (arg == "--out") {
      out = value;
    } else {
      std::fprintf(stderr, "unknown flag: %s\n", arg.c_str());
      return Usage();
    }
  }
  if (out.empty()) out = dataset;
  if (dataset != "hospital" && dataset != "flights" && dataset != "food" &&
      dataset != "physicians") {
    std::fprintf(stderr,
                 "--dataset must be hospital|flights|food|physicians\n");
    return 2;
  }
  holoclean::Status status = holoclean::Run(dataset, rows, seed, out);
  if (!status.ok()) {
    std::fprintf(stderr, "error: %s\n", status.ToString().c_str());
    return 1;
  }
  return 0;
}
