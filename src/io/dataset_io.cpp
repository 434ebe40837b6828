#include "io/dataset_io.h"

#include <fstream>
#include <sstream>

#include "common/error.h"
#include "common/set_ops.h"

namespace kcc {
namespace {

// Strips comments; returns false for blank lines.
bool prepare_line(std::string& line) {
  const auto hash = line.find('#');
  if (hash != std::string::npos) line.resize(hash);
  return line.find_first_not_of(" \t\r") != std::string::npos;
}

// Splits "a,b,c" into tokens.
std::vector<std::string> split_csv(const std::string& s) {
  std::vector<std::string> out;
  std::string token;
  std::istringstream ts(s);
  while (std::getline(ts, token, ',')) {
    if (!token.empty()) out.push_back(token);
  }
  return out;
}

std::uint64_t parse_u64(const std::string& s, const std::string& context) {
  std::size_t pos = 0;
  std::uint64_t v = 0;
  try {
    v = std::stoull(s, &pos);
  } catch (const std::exception&) {
    throw Error(context + ": invalid number '" + s + "'");
  }
  require(pos == s.size(), context, ": invalid number '", s, "'");
  return v;
}

}  // namespace

IxpDataset read_ixp_dataset(std::istream& in, const LabeledGraph& g) {
  std::vector<Ixp> ixps;
  std::string line;
  std::size_t line_no = 0;
  while (std::getline(in, line)) {
    ++line_no;
    if (!prepare_line(line)) continue;
    std::istringstream ls(line);
    Ixp ixp;
    std::string members;
    require(static_cast<bool>(ls >> ixp.name >> ixp.country >> members),
            "read_ixp_dataset: malformed line ", line_no);
    for (const std::string& token : split_csv(members)) {
      ixp.participants.push_back(
          g.node_of(parse_u64(token, "read_ixp_dataset")));
    }
    sort_unique(ixp.participants);
    ixps.push_back(std::move(ixp));
  }
  return IxpDataset(std::move(ixps));
}

IxpDataset read_ixp_dataset_file(const std::string& path,
                                 const LabeledGraph& g) {
  std::ifstream in(path);
  require(in.good(), "read_ixp_dataset_file: cannot open '", path, "'");
  return read_ixp_dataset(in, g);
}

void write_ixp_dataset(std::ostream& out, const IxpDataset& ixps,
                       const LabeledGraph& g) {
  for (const Ixp& ixp : ixps.all()) {
    out << ixp.name << ' ' << ixp.country << ' ';
    for (std::size_t i = 0; i < ixp.participants.size(); ++i) {
      if (i > 0) out << ',';
      out << g.labels[ixp.participants[i]];
    }
    out << '\n';
  }
}

GeoDataset read_geo_dataset(std::istream& countries_in, std::istream& geo_in,
                            const LabeledGraph& g) {
  std::vector<Country> countries;
  std::string line;
  std::size_t line_no = 0;
  while (std::getline(countries_in, line)) {
    ++line_no;
    if (!prepare_line(line)) continue;
    std::istringstream ls(line);
    Country country;
    require(static_cast<bool>(ls >> country.code >> country.continent),
            "read_geo_dataset: malformed country line ", line_no);
    countries.push_back(std::move(country));
  }

  // Temporary code -> id lookup.
  auto find_code = [&](const std::string& code) -> CountryId {
    for (CountryId id = 0; id < countries.size(); ++id) {
      if (countries[id].code == code) return id;
    }
    throw Error("read_geo_dataset: unknown country code '" + code + "'");
  };

  std::vector<std::vector<CountryId>> locations(g.graph.num_nodes());
  line_no = 0;
  while (std::getline(geo_in, line)) {
    ++line_no;
    if (!prepare_line(line)) continue;
    std::istringstream ls(line);
    std::string label_str, codes;
    require(static_cast<bool>(ls >> label_str >> codes),
            "read_geo_dataset: malformed geo line ", line_no);
    const NodeId v = g.node_of(parse_u64(label_str, "read_geo_dataset"));
    for (const std::string& code : split_csv(codes)) {
      locations[v].push_back(find_code(code));
    }
  }
  return GeoDataset(std::move(countries), std::move(locations));
}

GeoDataset read_geo_dataset_files(const std::string& countries_path,
                                  const std::string& geo_path,
                                  const LabeledGraph& g) {
  std::ifstream countries_in(countries_path);
  require(countries_in.good(),
          "read_geo_dataset_files: cannot open '", countries_path, "'");
  std::ifstream geo_in(geo_path);
  require(geo_in.good(),
          "read_geo_dataset_files: cannot open '", geo_path, "'");
  return read_geo_dataset(countries_in, geo_in, g);
}

void write_geo_dataset(std::ostream& countries_out, std::ostream& geo_out,
                       const GeoDataset& geo, const LabeledGraph& g) {
  for (const Country& country : geo.all_countries()) {
    countries_out << country.code << ' ' << country.continent << '\n';
  }
  for (NodeId v = 0; v < geo.node_capacity(); ++v) {
    const auto& locations = geo.locations_of(v);
    if (locations.empty()) continue;
    geo_out << g.labels[v] << ' ';
    for (std::size_t i = 0; i < locations.size(); ++i) {
      if (i > 0) geo_out << ',';
      geo_out << geo.country(locations[i]).code;
    }
    geo_out << '\n';
  }
}

}  // namespace kcc
