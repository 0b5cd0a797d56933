#include "vsync/view.hpp"

#include <sstream>

namespace plwg::vsync {

std::string ViewId::to_string() const {
  std::ostringstream os;
  os << *this;
  return os.str();
}

std::ostream& operator<<(std::ostream& os, const ViewId& id) {
  if (!id.valid()) return os << "view<->";
  os << "view<" << id.coordinator << ":" << id.seq;
  if (id.disambig != 0) os << "~" << id.disambig % 997;  // short merge tag
  return os << ">";
}

std::ostream& operator<<(std::ostream& os, const View& view) {
  return os << view.id << view.members;
}

}  // namespace plwg::vsync
