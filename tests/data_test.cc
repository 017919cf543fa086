#include <gtest/gtest.h>

#include <cmath>

#include "holoclean/data/error_injector.h"
#include "holoclean/data/flights.h"
#include "holoclean/data/food.h"
#include "holoclean/data/hospital.h"
#include "holoclean/data/physicians.h"
#include "holoclean/detect/violation_detector.h"

namespace holoclean {
namespace {

// ---------- Error injector primitives ----------

TEST(ErrorInjector, TypoChangesValue) {
  Rng rng(1);
  for (int i = 0; i < 50; ++i) {
    std::string out = InjectTypo("Chicago", &rng);
    EXPECT_NE(out, "Chicago");
    EXPECT_EQ(out.size(), 7u);
  }
  EXPECT_EQ(InjectTypo("", &rng), "x");
}

TEST(ErrorInjector, PerturbDigitChangesOneDigit) {
  Rng rng(2);
  for (int i = 0; i < 50; ++i) {
    std::string out = PerturbDigit("60608", &rng);
    EXPECT_NE(out, "60608");
    EXPECT_EQ(out.size(), 5u);
    int differences = 0;
    for (size_t j = 0; j < 5; ++j) {
      if (out[j] != "60608"[j]) ++differences;
    }
    EXPECT_EQ(differences, 1);
  }
}

TEST(ErrorInjector, SwapAdjacentChangesValue) {
  Rng rng(3);
  for (int i = 0; i < 50; ++i) {
    EXPECT_NE(SwapAdjacent("Sacramento", &rng), "Sacramento");
  }
}

TEST(ErrorInjector, PickDifferentAvoidsValue) {
  Rng rng(4);
  std::vector<std::string> pool = {"a", "b", "c"};
  for (int i = 0; i < 50; ++i) {
    EXPECT_NE(PickDifferent(pool, "a", &rng), "a");
  }
  std::vector<std::string> singleton = {"a"};
  EXPECT_EQ(PickDifferent(singleton, "a", &rng), "a");
}

TEST(Geography, ZipsAreUniqueAndCityConsistent) {
  auto geo = MakeGeography(20, 3, 5);
  ASSERT_EQ(geo.size(), 20u);
  std::set<std::string> zips;
  for (const auto& city : geo) {
    EXPECT_EQ(city.zips.size(), 3u);
    EXPECT_FALSE(city.state.empty());
    for (const auto& zip : city.zips) {
      EXPECT_TRUE(zips.insert(zip).second) << "duplicate zip " << zip;
    }
  }
}

TEST(MinutesToTime, Formats) {
  EXPECT_EQ(MinutesToTime(0), "00:00");
  EXPECT_EQ(MinutesToTime(615), "10:15");
  EXPECT_EQ(MinutesToTime(1439), "23:59");
  EXPECT_EQ(MinutesToTime(1440), "00:00");
}

// ---------- Generators: shared properties ----------

struct GeneratorCase {
  std::string name;
  size_t rows;
  size_t attrs;
  size_t dcs;
};

// Without a printer gtest dumps the struct's raw bytes, which include the
// string's heap address, so the discovered CTest names changed every build.
void PrintTo(const GeneratorCase& c, std::ostream* os) { *os << c.name; }

class GeneratorTest : public ::testing::TestWithParam<GeneratorCase> {
 protected:
  static GeneratedData Make(const std::string& name, uint64_t seed) {
    if (name == "hospital") return MakeHospital({500, 0.05, seed});
    if (name == "flights") {
      FlightsOptions options;
      options.num_rows = 600;
      options.seed = seed;
      return MakeFlights(options);
    }
    if (name == "food") return MakeFood({800, 0.06, seed});
    PhysiciansOptions options;
    options.num_rows = 1000;
    options.seed = seed;
    return MakePhysicians(options);
  }
};

TEST_P(GeneratorTest, ShapeMatchesSpec) {
  const GeneratorCase& c = GetParam();
  GeneratedData data = Make(c.name, 21);
  EXPECT_EQ(data.name, c.name);
  EXPECT_EQ(data.dataset.dirty().num_rows(), c.rows);
  EXPECT_EQ(data.dataset.dirty().schema().num_attrs(), c.attrs);
  EXPECT_EQ(data.dcs.size(), c.dcs);
  ASSERT_TRUE(data.dataset.has_clean());
  EXPECT_EQ(data.dataset.clean().num_rows(), c.rows);
}

TEST_P(GeneratorTest, CleanTableSatisfiesConstraints) {
  GeneratedData data = Make(GetParam().name, 22);
  Table clean = data.dataset.clean().Clone();
  ViolationDetector detector(&clean, &data.dcs);
  EXPECT_TRUE(detector.Detect().empty());
}

TEST_P(GeneratorTest, DirtyTableHasErrorsAndViolations) {
  GeneratedData data = Make(GetParam().name, 23);
  EXPECT_GT(data.dataset.TrueErrors().size(), 0u);
  ViolationDetector detector(&data.dataset.dirty(), &data.dcs);
  EXPECT_GT(detector.Detect().size(), 0u);
}

TEST_P(GeneratorTest, DeterministicForSeed) {
  GeneratedData a = Make(GetParam().name, 24);
  GeneratedData b = Make(GetParam().name, 24);
  ASSERT_EQ(a.dataset.dirty().num_rows(), b.dataset.dirty().num_rows());
  for (size_t t = 0; t < a.dataset.dirty().num_rows(); ++t) {
    for (size_t at = 0; at < a.dataset.dirty().schema().num_attrs(); ++at) {
      EXPECT_EQ(a.dataset.dirty().GetString(static_cast<TupleId>(t),
                                            static_cast<AttrId>(at)),
                b.dataset.dirty().GetString(static_cast<TupleId>(t),
                                            static_cast<AttrId>(at)));
    }
  }
}

TEST_P(GeneratorTest, DifferentSeedsDiffer) {
  GeneratedData a = Make(GetParam().name, 25);
  GeneratedData b = Make(GetParam().name, 26);
  size_t differences = 0;
  size_t n = std::min(a.dataset.dirty().num_rows(),
                      b.dataset.dirty().num_rows());
  for (size_t t = 0; t < n; ++t) {
    if (a.dataset.dirty().GetString(static_cast<TupleId>(t), 1) !=
        b.dataset.dirty().GetString(static_cast<TupleId>(t), 1)) {
      ++differences;
    }
  }
  EXPECT_GT(differences, 0u);
}

INSTANTIATE_TEST_SUITE_P(
    AllGenerators, GeneratorTest,
    ::testing::Values(GeneratorCase{"hospital", 500, 19, 9},
                      GeneratorCase{"flights", 600, 6, 4},
                      GeneratorCase{"food", 800, 17, 7},
                      GeneratorCase{"physicians", 1000, 18, 9}),
    [](const ::testing::TestParamInfo<GeneratorCase>& info) {
      return info.param.name;
    });

// ---------- Dataset-specific profiles ----------

TEST(Hospital, ErrorRateNearTarget) {
  GeneratedData data = MakeHospital({1000, 0.05, 31});
  double cells = static_cast<double>(data.dataset.dirty().num_cells());
  double errors = static_cast<double>(data.dataset.TrueErrors().size());
  // 11 of 19 attributes are error-eligible at rate 5%.
  double expected = 0.05 * 11.0 / 19.0;
  EXPECT_NEAR(errors / cells, expected, 0.01);
}

TEST(Hospital, HasDuplicationAcrossProviderRows) {
  GeneratedData data = MakeHospital({1000, 0.05, 32});
  const Table& clean = data.dataset.clean();
  AttrId provider = clean.schema().IndexOf("ProviderNumber");
  std::unordered_map<ValueId, int> counts;
  for (ValueId v : clean.Column(provider)) ++counts[v];
  int max_count = 0;
  for (const auto& [v, n] : counts) max_count = std::max(max_count, n);
  EXPECT_GT(max_count, 5);
}

TEST(Flights, MajorityOfCellsNoisy) {
  FlightsOptions options;
  options.num_rows = 2377;
  GeneratedData data = MakeFlights(options);
  ViolationDetector detector(&data.dataset.dirty(), &data.dcs);
  NoisyCells noisy =
      ViolationDetector::NoisyFromViolations(detector.Detect());
  // Paper Table 2: noisy cells (11,180) comparable to total cells (14,262).
  EXPECT_GT(noisy.size(), data.dataset.dirty().num_cells() / 2);
}

TEST(Flights, SourceColumnDeclaredAndClean) {
  FlightsOptions options;
  options.num_rows = 500;
  GeneratedData data = MakeFlights(options);
  ASSERT_TRUE(data.dataset.has_source_attr());
  AttrId src = data.dataset.source_attr();
  for (size_t t = 0; t < data.dataset.dirty().num_rows(); ++t) {
    EXPECT_EQ(data.dataset.dirty().Get(static_cast<TupleId>(t), src),
              data.dataset.clean().Get(static_cast<TupleId>(t), src));
  }
}

TEST(Food, ErrorsAreNonSystematic) {
  GeneratedData data = MakeFood({2000, 0.06, 33});
  // Count distinct wrong values among City errors: random typos should
  // rarely repeat (non-systematic), unlike Physicians.
  AttrId city = data.dataset.dirty().schema().IndexOf("City");
  std::unordered_map<ValueId, int> wrong_counts;
  for (const CellRef& c : data.dataset.TrueErrors()) {
    if (c.attr == city) ++wrong_counts[data.dataset.dirty().Get(c)];
  }
  ASSERT_GT(wrong_counts.size(), 3u);
  int max_repeat = 0;
  for (const auto& [v, n] : wrong_counts) {
    max_repeat = std::max(max_repeat, n);
  }
  EXPECT_LT(max_repeat, 12);
}

TEST(Physicians, ErrorsAreSystematic) {
  PhysiciansOptions options;
  options.num_rows = 4000;
  options.seed = 34;
  GeneratedData data = MakePhysicians(options);
  // The same misspelled city should repeat across many rows (the paper's
  // "Scaramento" effect).
  AttrId city = data.dataset.dirty().schema().IndexOf("City");
  std::unordered_map<ValueId, int> wrong_counts;
  for (const CellRef& c : data.dataset.TrueErrors()) {
    if (c.attr == city) ++wrong_counts[data.dataset.dirty().Get(c)];
  }
  int max_repeat = 0;
  for (const auto& [v, n] : wrong_counts) {
    max_repeat = std::max(max_repeat, n);
  }
  EXPECT_GT(max_repeat, 20);
}

TEST(Physicians, DictionaryFormatMismatch) {
  PhysiciansOptions options;
  options.num_rows = 500;
  GeneratedData data = MakePhysicians(options);
  ASSERT_EQ(data.dicts.size(), 1u);
  // Every dictionary zip is zero-padded to 6 digits; data zips are 5.
  const Table& listing = data.dicts.Get(0).records();
  for (size_t t = 0; t < listing.num_rows(); ++t) {
    EXPECT_EQ(listing.GetString(static_cast<TupleId>(t), 0).size(), 6u);
  }
}

}  // namespace
}  // namespace holoclean
